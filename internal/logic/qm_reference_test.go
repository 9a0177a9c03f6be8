package logic

// The slice-and-sort tabular Quine–McCluskey method that PrimeImplicants
// used before the dense implicant table, kept as a differential oracle,
// plus a brute-force prime enumeration that shares no code with either.

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"fsmpredict/internal/bitseq"
)

// sortDedupLevel orders one QM level by (care, value popcount, value) —
// the grouping key of the tabular method — and drops duplicate cubes.
func sortDedupLevel(cubes []bitseq.Cube) []bitseq.Cube {
	slices.SortFunc(cubes, func(a, b bitseq.Cube) int {
		if a.Care != b.Care {
			return cmp.Compare(a.Care, b.Care)
		}
		if pa, pb := bits.OnesCount32(a.Value), bits.OnesCount32(b.Value); pa != pb {
			return pa - pb
		}
		return cmp.Compare(a.Value, b.Value)
	})
	return slices.Compact(cubes)
}

// primeImplicantsRef is the pre-bitset PrimeImplicants: iterated pairwise
// combination over sorted, deduplicated levels. Cubes sharing a care mask
// and value popcount form a contiguous run, and a run's only plausible
// combine partners are the next run when it has the same care mask and
// popcount one higher.
func primeImplicantsRef(p Problem) []bitseq.Cube {
	var cur []bitseq.Cube
	for _, m := range p.On {
		cur = append(cur, bitseq.Minterm(m, p.Width))
	}
	for _, m := range p.DC {
		cur = append(cur, bitseq.Minterm(m, p.Width))
	}
	var primes []bitseq.Cube
	for len(cur) > 0 {
		cur = sortDedupLevel(cur)
		used := make([]bool, len(cur))
		var next []bitseq.Cube
		for start := 0; start < len(cur); {
			care, pop := cur[start].Care, bits.OnesCount32(cur[start].Value)
			end := start + 1
			for end < len(cur) && cur[end].Care == care && bits.OnesCount32(cur[end].Value) == pop {
				end++
			}
			pEnd := end
			for pEnd < len(cur) && cur[pEnd].Care == care && bits.OnesCount32(cur[pEnd].Value) == pop+1 {
				pEnd++
			}
			for i := start; i < end; i++ {
				for j := end; j < pEnd; j++ {
					if m, ok := cur[i].Combine(cur[j]); ok {
						used[i], used[j] = true, true
						next = append(next, m)
					}
				}
			}
			start = end
		}
		for i, c := range cur {
			if !used[i] {
				primes = append(primes, c)
			}
		}
		cur = next
	}
	bitseq.SortCubes(primes)
	return primes
}

// bruteForcePrimes enumerates all 3^w cubes and keeps those that cover
// only on ∪ dc minterms and stop doing so when any one literal is dropped.
// It emits them in the documented order — fewest literals first, then
// ascending care mask, then ascending value — without sorting.
func bruteForcePrimes(p Problem) []bitseq.Cube {
	n := uint32(1) << p.Width
	allowed := make([]bool, n)
	for _, m := range p.On {
		allowed[m] = true
	}
	for _, m := range p.DC {
		allowed[m] = true
	}
	implicant := func(value, care uint32) bool {
		for m := uint32(0); m < n; m++ {
			if (m^value)&care == 0 && !allowed[m] {
				return false
			}
		}
		return true
	}
	var out []bitseq.Cube
	for lits := 0; lits <= p.Width; lits++ {
		for care := uint32(0); care < n; care++ {
			if bits.OnesCount32(care) != lits {
				continue
			}
			for value := uint32(0); value < n; value++ {
				if value&^care != 0 || !implicant(value, care) {
					continue
				}
				prime := true
				for b := uint32(1); b < n; b <<= 1 {
					if care&b != 0 && implicant(value&^b, care&^b) {
						prime = false
						break
					}
				}
				if prime {
					out = append(out, bitseq.Cube{Value: value, Care: care, Width: p.Width})
				}
			}
		}
	}
	return out
}

func sameCubes(t *testing.T, what string, p Problem, got, want []bitseq.Cube) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s (w=%d on=%v dc=%v):\ngot  %v\nwant %v", what, p.Width, p.On, p.DC, got, want)
	}
}

// TestPrimeImplicantsExhaustive checks every on/dc/off assignment of
// widths 1–3 (3^(2^w) problems, 6,561 at width 3) against brute force.
func TestPrimeImplicantsExhaustive(t *testing.T) {
	for w := 1; w <= 3; w++ {
		n := 1 << w
		total := 1
		for i := 0; i < n; i++ {
			total *= 3
		}
		for code := 0; code < total; code++ {
			p := Problem{Width: w}
			for m, c := 0, code; m < n; m, c = m+1, c/3 {
				switch c % 3 {
				case 1:
					p.On = append(p.On, uint32(m))
				case 2:
					p.DC = append(p.DC, uint32(m))
				}
			}
			sameCubes(t, "PrimeImplicants vs brute force", p, PrimeImplicants(p), bruteForcePrimes(p))
		}
	}
}

// densityProblem draws a width-w problem whose minterms are on, dc or off
// with probabilities pOn, pDC and the rest, listed in random order with
// some on-set duplicates.
func densityProblem(rng *rand.Rand, w int, pOn, pDC float64) Problem {
	p := Problem{Width: w}
	for _, m := range rng.Perm(1 << w) {
		switch r := rng.Float64(); {
		case r < pOn:
			p.On = append(p.On, uint32(m))
			if rng.Intn(16) == 0 {
				p.On = append(p.On, uint32(m))
			}
		case r < pOn+pDC:
			p.DC = append(p.DC, uint32(m))
		}
	}
	return p
}

// TestPrimeImplicantsDifferential checks the dense implicant table against
// the slice oracle on seeded random problems up to width 12, from sparse
// to nearly full on ∪ dc sets.
func TestPrimeImplicantsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rounds := 72
	if testing.Short() {
		rounds = 24
	}
	for round := 0; round < rounds; round++ {
		w := 1 + round%maxExactWidth
		fill := []float64{0.05, 0.3, 0.6, 0.85, 0.97}[rng.Intn(5)]
		pOn := fill * rng.Float64()
		p := densityProblem(rng, w, pOn, fill-pOn)
		sameCubes(t, "PrimeImplicants vs slice oracle", p, PrimeImplicants(p), primeImplicantsRef(p))
	}
}

func TestExactEngineWidthBound(t *testing.T) {
	p := Problem{Width: maxExactWidth + 1, On: []uint32{1, 3}, DC: []uint32{2}}
	if primes := PrimeImplicants(p); primes != nil {
		t.Errorf("PrimeImplicants above the bound = %v, want nil", primes)
	}
	if _, err := MinimizeQM(p); err == nil {
		t.Error("MinimizeQM above the bound: want an error")
	}
	cover, err := Minimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, cover); err != nil {
		t.Error(err)
	}
}

var primesSink []bitseq.Cube

// BenchmarkPrimeImplicantsWidth10 times prime generation on a problem
// shaped like the paper grid's largest: width 10, ~1,000 on+dc minterms.
func BenchmarkPrimeImplicantsWidth10(b *testing.B) {
	p := densityProblem(rand.New(rand.NewSource(10)), 10, 0.5, 0.45)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		primesSink = PrimeImplicants(p)
	}
}
