package logic

import (
	"cmp"
	"slices"

	"fsmpredict/internal/bitseq"
)

// MinimizeHeuristic minimizes the problem with the classic Espresso
// iteration: EXPAND grows each cube as far as the off-set allows,
// IRREDUNDANT drops cubes whose on-set contribution is covered by others,
// and REDUCE shrinks cubes to escape local minima before another EXPAND.
// The loop runs until the cover cost stops improving.
//
// The on-set and allowed-set (on ∪ dc) minterm tables are dense bitsets
// over the 2^Width history space (Width ≤ 24, so at most 2 MiB each):
// membership tests in the inner EXPAND/IRREDUNDANT/REDUCE loops are one
// shift and mask, and cube scans run through Cube.EachMinterm without
// materializing minterm slices.
func MinimizeHeuristic(p Problem) ([]bitseq.Cube, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return minimizeHeuristic(p), nil
}

// minimizeHeuristic is MinimizeHeuristic on a validated problem.
func minimizeHeuristic(p Problem) []bitseq.Cube {
	if len(p.On) == 0 {
		return nil
	}

	u := 1 << uint(p.Width)
	// allowed holds every minterm a cube may cover (on ∪ dc).
	allowed := bitseq.NewSet(u)
	onSet := bitseq.NewSet(u)
	for _, m := range p.On {
		allowed.Add(int(m))
		onSet.Add(int(m))
	}
	for _, m := range p.DC {
		allowed.Add(int(m))
	}
	allowedCount := uint64(allowed.Len())

	// Initial cover: the on-set minterms themselves.
	cover := make([]bitseq.Cube, 0, onSet.Len())
	onSet.ForEach(func(m int) {
		cover = append(cover, bitseq.Minterm(uint32(m), p.Width))
	})
	bitseq.SortCubes(cover)

	cover = expand(cover, allowed, allowedCount, p.Width)
	cover = irredundant(cover, onSet)
	best := CoverCost(cover)

	for iter := 0; iter < 8; iter++ {
		reduced := reduce(cover, onSet, p.Width)
		candidate := expand(reduced, allowed, allowedCount, p.Width)
		candidate = irredundant(candidate, onSet)
		// REDUCE shrinks every cube against the ORIGINAL cover, so two
		// cubes sharing a minterm can both drop it; if EXPAND did not win
		// it back, the candidate is not a cover — keep the last good one.
		if !coversAll(candidate, p.On) {
			break
		}
		cost := CoverCost(candidate)
		if !cost.Less(best) {
			break
		}
		cover, best = candidate, cost
	}
	bitseq.SortCubes(cover)
	return cover
}

// coversAll reports whether every on-set minterm is matched by the cover.
func coversAll(cover []bitseq.Cube, on []uint32) bool {
	for _, m := range on {
		if !bitseq.CoverMatches(cover, m) {
			return false
		}
	}
	return true
}

// fits reports whether every minterm of c lies inside the allowed set.
// The early size check keeps enumeration bounded by |allowed|.
func fits(c bitseq.Cube, allowed *bitseq.Set, allowedCount uint64) bool {
	if c.Size() > allowedCount {
		return false
	}
	return c.EachMinterm(func(m uint32) bool {
		return allowed.Has(int(m))
	})
}

// expand grows every cube one freed literal at a time, greedily choosing
// the literal whose removal stays inside allowed, then prunes cubes
// contained in other cubes.
func expand(cover []bitseq.Cube, allowed *bitseq.Set, allowedCount uint64, width int) []bitseq.Cube {
	out := make([]bitseq.Cube, 0, len(cover))
	for _, c := range cover {
		grown := true
		for grown {
			grown = false
			// Greedy: free the first (deterministic order) bit that works.
			for b := 0; b < width; b++ {
				if c.Care>>uint(b)&1 == 0 {
					continue
				}
				cand := bitseq.NewCube(c.Value&^(1<<uint(b)), c.Care&^(1<<uint(b)), width)
				if fits(cand, allowed, allowedCount) {
					c = cand
					grown = true
				}
			}
		}
		out = append(out, c)
	}
	return pruneContained(out)
}

// pruneContained removes cubes contained in another cube of the cover.
func pruneContained(cover []bitseq.Cube) []bitseq.Cube {
	// Sort most-general first so containment scan is one pass.
	sorted := append([]bitseq.Cube(nil), cover...)
	bitseq.SortCubes(sorted)
	var out []bitseq.Cube
	for _, c := range sorted {
		contained := false
		for _, k := range out {
			if k.Contains(c) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, c)
		}
	}
	return out
}

// irredundant removes cubes whose on-set minterms are all covered by the
// remaining cubes, scanning the most specific cubes first.
func irredundant(cover []bitseq.Cube, onSet *bitseq.Set) []bitseq.Cube {
	order := make([]int, len(cover))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ca, cb := cover[a], cover[b]
		if ca.Literals() != cb.Literals() {
			return cb.Literals() - ca.Literals() // most specific first
		}
		if ca.Care != cb.Care {
			return cmp.Compare(ca.Care, cb.Care)
		}
		return cmp.Compare(ca.Value, cb.Value)
	})
	removed := make([]bool, len(cover))
	for _, i := range order {
		needed := false
		cover[i].EachMinterm(func(m uint32) bool {
			if !onSet.Has(int(m)) {
				return true
			}
			for j, c := range cover {
				if j == i || removed[j] {
					continue
				}
				if c.Matches(m) {
					return true // covered elsewhere; keep scanning
				}
			}
			needed = true
			return false
		})
		if !needed {
			removed[i] = true
		}
	}
	var out []bitseq.Cube
	for i, c := range cover {
		if !removed[i] {
			out = append(out, c)
		}
	}
	return out
}

// reduce shrinks each cube to the supercube of the on-set minterms only it
// covers, dropping cubes with no unique contribution. Shrinking within the
// original cube can never introduce off-set coverage.
func reduce(cover []bitseq.Cube, onSet *bitseq.Set, width int) []bitseq.Cube {
	var out []bitseq.Cube
	for i, c := range cover {
		var unique []uint32
		c.EachMinterm(func(m uint32) bool {
			if !onSet.Has(int(m)) {
				return true
			}
			for j, d := range cover {
				if j != i && d.Matches(m) {
					return true // covered elsewhere, not unique
				}
			}
			unique = append(unique, m)
			return true
		})
		if len(unique) == 0 {
			continue
		}
		out = append(out, supercube(unique, width))
	}
	return out
}

// supercube returns the smallest cube containing all the given minterms.
func supercube(minterms []uint32, width int) bitseq.Cube {
	mask := uint32(1)<<uint(width) - 1
	andV, orV := mask, uint32(0)
	for _, m := range minterms {
		andV &= m
		orV |= m
	}
	care := mask &^ (andV ^ orV) // positions where all minterms agree
	return bitseq.NewCube(andV&care, care, width)
}
