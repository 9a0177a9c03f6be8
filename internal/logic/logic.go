// Package logic performs two-level logic minimization, standing in for the
// Espresso PLA minimizer the paper uses in its pattern-compression step
// (§4.4). Given the "predict 1" set as an on-set and the "don't care" set
// as a dc-set, it produces a compact sum-of-products cover: a list of
// cubes (product terms) that covers every on-set minterm, may absorb
// don't-care minterms, and never covers an off-set minterm.
//
// Two engines are provided:
//
//   - Quine–McCluskey (MinimizeQM, width ≤ 12): exact prime-implicant
//     generation over a dense bit-parallel implicant table, then unate
//     covering with essential-prime extraction and exact branch-and-bound
//     on small residual tables (greedy beyond a size limit).
//   - Espresso-style heuristic (MinimizeHeuristic): the classic
//     EXPAND / IRREDUNDANT / REDUCE loop working directly on cubes, which
//     scales to wider inputs without enumerating all primes.
//
// Both engines are verified against each other, against brute force and
// against the functional specification by the package tests.
package logic

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"fsmpredict/internal/bitseq"
)

// Problem is a single-output minimization instance over Width input bits.
// Minterm values use the bitseq history convention. Any minterm not in On
// or DC is in the off-set.
type Problem struct {
	Width int
	On    []uint32 // minterms that must evaluate to 1
	DC    []uint32 // minterms free to evaluate either way
}

// Validate checks structural invariants: width in range, minterms within
// width, and On/DC disjoint.
func (p Problem) Validate() error {
	if p.Width < 1 || p.Width > 24 {
		return fmt.Errorf("logic: width %d out of range [1,24]", p.Width)
	}
	mask := uint32(1)<<uint(p.Width) - 1
	// A dense on-set: 2^Width bits, no larger than either engine's own sets.
	on := bitseq.NewSet(1 << p.Width)
	for _, m := range p.On {
		if m&^mask != 0 {
			return fmt.Errorf("logic: on-set minterm %#x exceeds width %d", m, p.Width)
		}
		on.Add(int(m))
	}
	for _, m := range p.DC {
		if m&^mask != 0 {
			return fmt.Errorf("logic: dc-set minterm %#x exceeds width %d", m, p.Width)
		}
		if on.Has(int(m)) {
			return fmt.Errorf("logic: minterm %#x in both on-set and dc-set", m)
		}
	}
	return nil
}

// FromPartition converts a markov-style partition (lists of minterm cubes)
// into a Problem. On and DC cubes must be minterms of the same width.
func FromPartition(width int, on, dc []bitseq.Cube) Problem {
	p := Problem{Width: width}
	for _, c := range on {
		p.On = append(p.On, c.Value)
	}
	for _, c := range dc {
		p.DC = append(p.DC, c.Value)
	}
	return p
}

// Cost summarizes the quality of a cover.
type Cost struct {
	Cubes    int
	Literals int
}

// CoverCost computes the cost of a cover.
func CoverCost(cover []bitseq.Cube) Cost {
	c := Cost{Cubes: len(cover)}
	for _, cu := range cover {
		c.Literals += cu.Literals()
	}
	return c
}

// Less orders costs by cube count, then literal count.
func (c Cost) Less(d Cost) bool {
	if c.Cubes != d.Cubes {
		return c.Cubes < d.Cubes
	}
	return c.Literals < d.Literals
}

// Verify checks that the cover implements the problem: every on-set
// minterm is covered and no off-set minterm is covered. It returns a
// descriptive error on the first violation.
func Verify(p Problem, cover []bitseq.Cube) error {
	if err := p.Validate(); err != nil {
		return err
	}
	kind := make(map[uint32]byte, len(p.On)+len(p.DC))
	for _, m := range p.On {
		kind[m] = 1
	}
	for _, m := range p.DC {
		kind[m] = 2
	}
	for _, c := range cover {
		if c.Width != p.Width {
			return fmt.Errorf("logic: cover cube %v has width %d, want %d", c, c.Width, p.Width)
		}
	}
	for _, m := range p.On {
		if !bitseq.CoverMatches(cover, m) {
			return fmt.Errorf("logic: on-set minterm %s not covered",
				bitseq.HistoryString(m, p.Width))
		}
	}
	// Off-set check: enumerate matches of each cube and ensure they are
	// on or dc minterms. This avoids enumerating the whole off-set.
	for _, c := range cover {
		for _, m := range c.Minterms() {
			if kind[m] == 0 {
				return fmt.Errorf("logic: cover cube %v wrongly covers off-set minterm %s",
					c, bitseq.HistoryString(m, p.Width))
			}
		}
	}
	return nil
}

// maxExactWidth bounds the exact engine, whose implicant table takes up
// to 2^Width bits for each of 2^Width freed-position masks (2 MiB at 12).
const maxExactWidth = 12

// Minimize picks an engine appropriate for the problem size: QM up to
// width 12, the heuristic engine above. This mirrors how Espresso is used
// in the paper: exact quality on the small per-predictor tables, graceful
// degradation beyond.
func Minimize(p Problem) ([]bitseq.Cube, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Width > maxExactWidth {
		return minimizeHeuristic(p), nil
	}
	// The heuristic occasionally beats pure QM-with-greedy-cover on
	// literal count; keep whichever is cheaper.
	qm, he := minimizeQM(p), minimizeHeuristic(p)
	if CoverCost(he).Less(CoverCost(qm)) {
		return he, nil
	}
	return qm, nil
}

// MinimizeQM runs Quine–McCluskey prime generation over the on+dc set,
// then solves the covering problem for the on-set. It rejects width > 12.
func MinimizeQM(p Problem) ([]bitseq.Cube, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Width > maxExactWidth {
		return nil, fmt.Errorf("logic: width %d exceeds the exact engine's bound %d", p.Width, maxExactWidth)
	}
	return minimizeQM(p), nil
}

// minimizeQM is MinimizeQM on a validated problem.
func minimizeQM(p Problem) []bitseq.Cube {
	if len(p.On) == 0 {
		return nil
	}
	cover := solveCover(p.On, PrimeImplicants(p))
	bitseq.SortCubes(cover)
	return cover
}

// qmScratch holds PrimeImplicants' implicant table, pooled so the
// designer's steady state reuses one arena across calls.
type qmScratch struct {
	arena []uint64 // the non-empty tables, one after another
	off   []int    // freed-position mask -> table offset in arena, -1 if empty
}

var qmPool = sync.Pool{New: func() any { return new(qmScratch) }}

// PrimeImplicants generates all prime implicants of the on+dc set, in
// bitseq.SortCubes order, or nil above width 12. For each freed-position
// mask F a dense table holds one bit per value v with v&F == 0, set when
// the cube (v, full&^F) covers only on+dc minterms. Table 0 is on ∪ dc;
// table G is table G&^b, b = lowbit(G), AND-ed with itself shifted down
// by b — the tabular method's combine step, a word at a time and with no
// sorting. Supersets of an empty table's mask are empty and never stored.
// An implicant is prime when no table F|b, expanded back along b, holds it.
func PrimeImplicants(p Problem) []bitseq.Cube {
	if p.Width > maxExactWidth {
		return nil
	}
	full := 1<<p.Width - 1
	nw := (full + 64) / 64
	s := qmPool.Get().(*qmScratch)
	arena := slices.Grow(s.arena[:0], nw)[:nw]
	clear(arena)
	for _, set := range [][]uint32{p.On, p.DC} {
		for _, m := range set {
			arena[m>>6] |= 1 << (m & 63)
		}
	}
	off := append(s.off[:0], 0)
	for g := 1; g <= full; g++ {
		b := bits.TrailingZeros(uint(g))
		src := off[g&^(1<<b)]
		if src < 0 {
			off = append(off, -1)
			continue
		}
		o := len(arena)
		arena = slices.Grow(arena, nw)[:o+nw]
		half := ^uint64(0) / (1<<(1<<b) + 1) // bits whose index has bit b clear, for b < 6
		var nz uint64
		for i := 0; i < nw; i++ {
			x := arena[src+i]
			if b < 6 {
				x &= x >> (1 << b) & half
			} else if d := 1 << (b - 6); i&d == 0 {
				x &= arena[src+i+d]
			} else {
				x = 0
			}
			arena[o+i] = x
			nz |= x
		}
		if nz == 0 {
			arena, o = arena[:o], -1
		}
		off = append(off, o)
	}

	// Emit in bitseq.SortCubes order: most freed positions first, then
	// descending freed mask (ascending care), then ascending value.
	var primes []bitseq.Cube
	for k := p.Width; k >= 0; k-- {
		for f := full; f >= 0; f-- {
			if off[f] < 0 || bits.OnesCount(uint(f)) != k {
				continue
			}
			for i := 0; i < nw; i++ {
				x := arena[off[f]+i]
				// Expand each table F|b back along b: within the word for
				// b < 6 (a shift of 64 or more is 0 in Go), across words above.
				for c := full &^ f; c != 0 && x != 0; c &= c - 1 {
					if b := bits.TrailingZeros(uint(c)); off[f|1<<b] >= 0 {
						y := arena[off[f|1<<b]+i&^(1<<b>>6)]
						x &^= y | y<<(1<<b)
					}
				}
				for ; x != 0; x &= x - 1 {
					v := i<<6 | bits.TrailingZeros64(x)
					primes = append(primes, bitseq.Cube{Value: uint32(v), Care: uint32(full &^ f), Width: p.Width})
				}
			}
		}
	}
	s.arena, s.off = arena[:0], off[:0]
	qmPool.Put(s)
	return primes
}

// coverLimit bounds the branch-and-bound search; above it the covering
// step falls back to pure greedy selection.
const coverLimit = 26

// solveCover selects a minimal (or near-minimal) subset of primes that
// covers all on-set minterms.
func solveCover(on []uint32, primes []bitseq.Cube) []bitseq.Cube {
	onSet := slices.Clone(on)
	slices.Sort(onSet)
	onSet = slices.Compact(onSet)

	// Build the covering table.
	coversOf := make([][]int, len(onSet)) // minterm index -> prime indexes
	mintermsOf := make([][]int, len(primes))
	for mi, m := range onSet {
		for pi, c := range primes {
			if c.Matches(m) {
				coversOf[mi] = append(coversOf[mi], pi)
				mintermsOf[pi] = append(mintermsOf[pi], mi)
			}
		}
	}

	chosen := make([]bool, len(primes))
	covered := make([]bool, len(onSet))
	remaining := len(onSet)

	choose := func(pi int) {
		if chosen[pi] {
			return
		}
		chosen[pi] = true
		for _, mi := range mintermsOf[pi] {
			if !covered[mi] {
				covered[mi] = true
				remaining--
			}
		}
	}

	// Essential primes: a minterm covered by exactly one prime forces it.
	for mi := range onSet {
		if len(coversOf[mi]) == 1 {
			choose(coversOf[mi][0])
		}
	}

	// Residual problem.
	if remaining > 0 {
		var resM []int
		for mi := range onSet {
			if !covered[mi] {
				resM = append(resM, mi)
			}
		}
		var resP []int
		for pi := range primes {
			if chosen[pi] {
				continue
			}
			for _, mi := range mintermsOf[pi] {
				if !covered[mi] {
					resP = append(resP, pi)
					break
				}
			}
		}
		var picked []int
		if len(resM) <= coverLimit && len(resP) <= coverLimit {
			picked = exactCover(resM, resP, mintermsOf, covered, primes)
		} else {
			picked = greedyCover(resM, resP, mintermsOf, covered, primes)
		}
		for _, pi := range picked {
			choose(pi)
		}
	}

	var out []bitseq.Cube
	for pi, ok := range chosen {
		if ok {
			out = append(out, primes[pi])
		}
	}
	return out
}

// greedyCover repeatedly picks the prime covering the most uncovered
// residual minterms (ties: fewer literals, then deterministic order).
func greedyCover(resM, resP []int, mintermsOf [][]int, already []bool, primes []bitseq.Cube) []int {
	covered := append([]bool(nil), already...)
	need := 0
	for _, mi := range resM {
		if !covered[mi] {
			need++
		}
	}
	var out []int
	for need > 0 {
		best, bestGain := -1, 0
		for _, pi := range resP {
			gain := 0
			for _, mi := range mintermsOf[pi] {
				if !covered[mi] {
					gain++
				}
			}
			if gain > bestGain ||
				(gain == bestGain && gain > 0 && best >= 0 &&
					primes[pi].Literals() < primes[best].Literals()) {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			break // unsatisfiable residual; caller's Verify will catch it
		}
		out = append(out, best)
		for _, mi := range mintermsOf[best] {
			if !covered[mi] {
				covered[mi] = true
				need--
			}
		}
	}
	return out
}

// exactCover performs branch and bound over the residual covering table.
// Residual sizes are bounded by coverLimit so bitmask state fits in uint32.
func exactCover(resM, resP []int, mintermsOf [][]int, already []bool, primes []bitseq.Cube) []int {
	idx := make(map[int]int, len(resM)) // minterm index -> bit
	for b, mi := range resM {
		idx[mi] = b
	}
	full := uint32(1)<<uint(len(resM)) - 1
	masks := make([]uint32, len(resP))
	for i, pi := range resP {
		for _, mi := range mintermsOf[pi] {
			if b, ok := idx[mi]; ok {
				masks[i] |= 1 << uint(b)
			}
		}
	}

	best := append([]int(nil), greedyCover(resM, resP, mintermsOf, already, primes)...)
	bestN := len(best)

	var rec func(cov uint32, picked []int)
	rec = func(cov uint32, picked []int) {
		if cov == full {
			if len(picked) < bestN {
				bestN = len(picked)
				best = append([]int(nil), picked...)
			}
			return
		}
		if len(picked)+1 >= bestN {
			// Even one more pick cannot beat the incumbent unless it
			// finishes the cover; try only finishing picks.
			for i, m := range masks {
				if cov|m == full && len(picked)+1 < bestN {
					bestN = len(picked) + 1
					best = append(append([]int(nil), picked...), resP[i])
					return
				}
			}
			return
		}
		// Branch on the uncovered minterm with fewest candidate primes.
		bestBit, bestCnt := -1, len(resP)+1
		for b := 0; b < len(resM); b++ {
			if cov>>uint(b)&1 == 1 {
				continue
			}
			cnt := 0
			for _, m := range masks {
				if m>>uint(b)&1 == 1 {
					cnt++
				}
			}
			if cnt < bestCnt {
				bestBit, bestCnt = b, cnt
			}
		}
		if bestBit < 0 || bestCnt == 0 {
			return
		}
		for i, m := range masks {
			if m>>uint(bestBit)&1 == 1 {
				rec(cov|m, append(picked, resP[i]))
			}
		}
	}
	rec(0, nil) // resM holds only minterms no chosen prime covers yet
	return best
}
