package gasearch

import (
	"math/rand"
	"reflect"
	"testing"

	"fsmpredict/internal/core"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/workload"
)

func alternatingTrace(n int) []bool {
	t := make([]bool, n)
	for i := range t {
		t[i] = i%2 == 0
	}
	return t
}

func TestSearchFindsAlternation(t *testing.T) {
	res, err := Search(alternatingTrace(500), Options{
		States: 2, Population: 40, Generations: 30, Seed: 1, Warmup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMissRate > 0.01 {
		t.Errorf("best miss = %v, want ~0 on alternating trace", res.BestMissRate)
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best machine invalid: %v", err)
	}
}

func TestSearchMonotoneUnderElitism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trace := make([]bool, 2000)
	for i := range trace {
		trace[i] = i%7 < 4 || rng.Intn(5) == 0
	}
	res, err := Search(trace, Options{States: 8, Population: 50, Generations: 40, Seed: 2, Warmup: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.PerGeneration); i++ {
		if res.PerGeneration[i] > res.PerGeneration[i-1]+1e-12 {
			t.Fatalf("fitness regressed at generation %d: %v -> %v",
				i, res.PerGeneration[i-1], res.PerGeneration[i])
		}
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations counted")
	}
}

func TestSearchDeterministic(t *testing.T) {
	trace := alternatingTrace(300)
	opt := Options{States: 4, Population: 30, Generations: 10, Seed: 7, Warmup: 2}
	a, err := Search(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestMissRate != b.BestMissRate || a.Evaluations != b.Evaluations {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d",
			a.BestMissRate, a.Evaluations, b.BestMissRate, b.Evaluations)
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := Search(alternatingTrace(100), Options{States: 1}); err == nil {
		t.Error("expected states error")
	}
	if _, err := Search(alternatingTrace(100), Options{States: 99}); err == nil {
		t.Error("expected states error")
	}
	if _, err := Search(nil, Options{States: 4}); err == nil {
		t.Error("expected trace error")
	}
	if _, err := Search(alternatingTrace(100), Options{States: 4, Elite: 64, Population: 64}); err == nil {
		t.Error("expected elite error")
	}
}

// TestDesignerMatchesSearchQuality is the paper's §3.2 comparison: on a
// globally patterned trace, the constructive design flow must reach the
// quality of an evolutionary search (it is provably model-optimal on the
// training trace) at a fraction of the evaluations.
func TestDesignerMatchesSearchQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Outcome = outcome three steps back, with 5% noise.
	trace := make([]bool, 4000)
	for i := range trace {
		if i < 3 {
			trace[i] = rng.Intn(2) == 1
		} else {
			trace[i] = trace[i-3] != (rng.Intn(20) == 0)
		}
	}
	design, err := core.FromBools(trace, core.Options{Order: 3})
	if err != nil {
		t.Fatal(err)
	}
	designed := design.Machine.Simulate(trace, 3).MissRate()

	res, err := Search(trace, Options{
		States: design.Machine.NumStates(), Population: 60, Generations: 60,
		Seed: 3, Warmup: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if designed > res.BestMissRate+0.01 {
		t.Errorf("designed machine (%.4f) should match GA search (%.4f)",
			designed, res.BestMissRate)
	}
	t.Logf("designed %.4f in 1 construction vs GA %.4f in %d evaluations",
		designed, res.BestMissRate, res.Evaluations)
}

// TestSearchKernelOnOffIdentical pins the fleet-batched evaluation path
// to the scalar per-genome oracle: the trajectory below — every
// generation's best, the final machine, the evaluation count — was
// recorded when the block kernel could still be switched off
// process-wide and the search was proven bit-identical with it on and
// off.
func TestSearchKernelOnOffIdentical(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	trace := make([]bool, 1500)
	for i := range trace {
		trace[i] = i%5 < 3 || rng.Intn(4) == 0
	}
	opt := Options{States: 6, Population: 24, Generations: 12, Seed: 9, Warmup: 5}
	const best = 0.2662207357859532
	wantBest := &fsm.Machine{
		Output: []bool{false, true, false, false, false, false},
		Next:   [][2]int{{2, 2}, {5, 1}, {0, 1}, {2, 1}, {1, 0}, {1, 1}},
	}

	got, err := Search(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	for g, miss := range got.PerGeneration {
		if miss != best {
			t.Fatalf("generation %d best %v, pinned %v (curve %v)", g, miss, best, got.PerGeneration)
		}
	}
	if len(got.PerGeneration) != opt.Generations || got.BestMissRate != best || got.Evaluations != 288 {
		t.Fatalf("%d generations, best %v, %d evaluations; pinned %d, %v, 288",
			len(got.PerGeneration), got.BestMissRate, got.Evaluations, opt.Generations, best)
	}
	if !reflect.DeepEqual(got.Best, wantBest) {
		t.Fatalf("best machine %v, pinned %v", got.Best, wantBest)
	}
	// The pinned champion replays to the pinned miss rate on the scalar
	// oracle itself.
	if miss := wantBest.SimulateScalar(trace, opt.Warmup).MissRate(); miss != best {
		t.Fatalf("scalar replay of the pinned champion: %v, want %v", miss, best)
	}
}

// TestSearchWorkersInvariant checks that sharding the fleet evaluation
// across goroutines does not change the search trajectory.
func TestSearchWorkersInvariant(t *testing.T) {
	trace := alternatingTrace(800)
	base := Options{States: 4, Population: 20, Generations: 8, Seed: 13, Warmup: 2}
	seq, err := Search(trace, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 4
	got, err := Search(trace, par)
	if err != nil {
		t.Fatal(err)
	}
	if seq.BestMissRate != got.BestMissRate || !reflect.DeepEqual(seq.PerGeneration, got.PerGeneration) {
		t.Fatalf("workers changed the trajectory: %v vs %v", seq.PerGeneration, got.PerGeneration)
	}
}

// BenchmarkGASearch measures a full search with population-batched
// fleet evaluation against scoring the same number of genomes one at a
// time on the scalar walk (the path a machine over the block-table
// bound takes) — the wall-clock headline for the search side of the
// fleet kernel. The scalar side leaves out the GA bookkeeping, which is
// small next to the scoring it stands in for.
func BenchmarkGASearch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	trace := make([]bool, 1<<15)
	for i := range trace {
		if i < 3 {
			trace[i] = rng.Intn(2) == 1
		} else {
			trace[i] = trace[i-3] != (rng.Intn(20) == 0)
		}
	}
	opt := Options{States: 8, Population: 64, Generations: 20, Seed: 3, Warmup: 3}
	evals := opt.Population * (opt.Generations + 1)
	bytes := int64(evals) * int64(len(trace)) / 8
	b.Run("fleet", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			if _, err := Search(trace, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		genomes := make([]*fsm.Machine, opt.Population)
		for i := range genomes {
			genomes[i] = randomMachine(rng, opt.States)
		}
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for e := 0; e < evals; e++ {
				genomes[e%len(genomes)].SimulateScalar(trace, opt.Warmup)
			}
		}
	})
}

// workloadTrace renders a named branch benchmark's interleaved outcome
// stream — the "real workload" shape the adaptive ladder is judged on.
func workloadTrace(tb testing.TB, name string, n int) []bool {
	tb.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	evs := p.Generate(workload.Train, n)
	out := make([]bool, len(evs))
	for i, e := range evs {
		out[i] = e.Taken
	}
	return out
}

// TestSearchAdaptiveChampionIdentity is the headline acceptance check:
// on representative workloads the adaptive racer must return the SAME
// champion machine at the SAME exact miss rate as the exact search —
// pruning may only skip work, never change the answer we report. This
// is an empirical property (a bound violation at the pool boundary can
// shift tournament pressure), so it is pinned here on the workloads the
// seed sweep showed identical on 10/10 seeds, and the full per-workload
// picture is reported honestly in EXPERIMENTS.md.
func TestSearchAdaptiveChampionIdentity(t *testing.T) {
	for _, name := range []string{"ijpeg", "vortex"} {
		t.Run(name, func(t *testing.T) {
			trace := workloadTrace(t, name, 1<<16)
			opt := Options{States: 8, Population: 48, Generations: 20, Seed: 17, Warmup: 64}

			fidelity.ResetMemo()
			exact, err := Search(trace, opt)
			if err != nil {
				t.Fatal(err)
			}
			aopt := opt
			aopt.Adaptive = true
			fidelity.ResetMemo()
			adaptive, err := Search(trace, aopt)
			if err != nil {
				t.Fatal(err)
			}

			if fsm.CompareStructural(exact.Best, adaptive.Best) != 0 {
				t.Fatalf("champions diverge: exact miss %v, adaptive miss %v",
					exact.BestMissRate, adaptive.BestMissRate)
			}
			if exact.BestMissRate != adaptive.BestMissRate {
				t.Fatalf("champion miss diverges: %v vs %v", exact.BestMissRate, adaptive.BestMissRate)
			}
			// The reported rate must be a true full-fidelity measurement.
			if want := adaptive.Best.Simulate(trace, opt.Warmup).MissRate(); adaptive.BestMissRate != want {
				t.Fatalf("reported %v, full re-simulation %v", adaptive.BestMissRate, want)
			}
			if !adaptive.Racing.LadderUsed {
				t.Fatal("ladder not used on a 64k-event workload")
			}
			t.Logf("%s: miss %.4f, rung evals %d, pruned %d, escalated %d, memo hits %d, deduped %d",
				name, adaptive.BestMissRate, adaptive.Racing.RungEvals, adaptive.Racing.Pruned,
				adaptive.Racing.Escalated, adaptive.Racing.MemoHits, adaptive.Racing.Deduped)
		})
	}
}

// TestSearchAdaptiveMonotoneAndExact: elitism monotonicity and the
// exactness of every reported per-generation best survive the racer.
func TestSearchAdaptiveMonotoneAndExact(t *testing.T) {
	trace := workloadTrace(t, "gsm", 1<<16)
	fidelity.ResetMemo()
	res, err := Search(trace, Options{
		States: 8, Population: 40, Generations: 15, Seed: 5, Warmup: 64, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.PerGeneration); i++ {
		if res.PerGeneration[i] > res.PerGeneration[i-1]+1e-12 {
			t.Fatalf("fitness regressed at generation %d: %v -> %v",
				i, res.PerGeneration[i-1], res.PerGeneration[i])
		}
	}
	if want := res.Best.Simulate(trace, 64).MissRate(); res.BestMissRate != want {
		t.Fatalf("BestMissRate %v != full re-simulation %v", res.BestMissRate, want)
	}
}

// TestSearchAdaptiveShortTraceTrajectoryIdentical: when the trace is too
// short to stage, adaptive mode degenerates to exact scoring through the
// memo and the trajectory must be bit-identical to the exact oracle.
func TestSearchAdaptiveShortTraceTrajectoryIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trace := make([]bool, 2000)
	for i := range trace {
		trace[i] = i%6 < 4 || rng.Intn(3) == 0
	}
	opt := Options{States: 6, Population: 24, Generations: 10, Seed: 3, Warmup: 4}
	exact, err := Search(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	aopt := opt
	aopt.Adaptive = true
	fidelity.ResetMemo()
	adaptive, err := Search(trace, aopt)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Racing.LadderUsed {
		t.Fatal("ladder accepted a 2000-event trace")
	}
	if !reflect.DeepEqual(exact.PerGeneration, adaptive.PerGeneration) {
		t.Fatalf("trajectories diverge:\nexact:    %v\nadaptive: %v",
			exact.PerGeneration, adaptive.PerGeneration)
	}
	if fsm.CompareStructural(exact.Best, adaptive.Best) != 0 ||
		exact.BestMissRate != adaptive.BestMissRate ||
		exact.Evaluations != adaptive.Evaluations {
		t.Fatal("short-trace adaptive run diverges from the exact oracle")
	}
}

// TestSearchAdaptiveMemoWarm: a repeat search over the same trace must
// draw on the fitness memo (the whole point of persisting exact scores)
// and still return the identical result.
func TestSearchAdaptiveMemoWarm(t *testing.T) {
	trace := workloadTrace(t, "gsm", 1<<16)
	opt := Options{States: 8, Population: 40, Generations: 12, Seed: 29, Warmup: 64, Adaptive: true}
	fidelity.ResetMemo()
	cold, err := Search(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Search(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Racing.MemoHits == 0 {
		t.Fatal("repeat search hit the memo zero times")
	}
	if warm.Racing.MemoHits <= cold.Racing.MemoHits {
		t.Fatalf("warm memo hits %d not above cold %d", warm.Racing.MemoHits, cold.Racing.MemoHits)
	}
	if fsm.CompareStructural(cold.Best, warm.Best) != 0 || cold.BestMissRate != warm.BestMissRate {
		t.Fatal("memo warm-start changed the result")
	}
}

// TestSortByFitnessStructuralTieBreak: equal-fitness genomes must sort
// into the structural total order regardless of input permutation.
func TestSortByFitnessStructuralTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := make([]*genome, 8)
	for i := range base {
		base[i] = &genome{m: randomMachine(rng, 4), miss: 0.25}
	}
	a := append([]*genome(nil), base...)
	b := make([]*genome, len(base))
	for i, j := range rng.Perm(len(base)) {
		b[i] = base[j]
	}
	sortByFitness(a)
	sortByFitness(b)
	for i := range a {
		if fsm.CompareStructural(a[i].m, b[i].m) != 0 {
			t.Fatalf("tie-break order depends on input permutation at slot %d", i)
		}
		if i > 0 && fsm.CompareStructural(a[i-1].m, a[i].m) > 0 {
			t.Fatalf("slots %d,%d out of structural order", i-1, i)
		}
	}
}

// TestSearchDedupSharesEvaluations: structurally identical cohort
// members must share one evaluation in the adaptive path.
func TestSearchDedupSharesEvaluations(t *testing.T) {
	trace := workloadTrace(t, "gsm", 1<<16)
	fidelity.ResetMemo()
	res, err := Search(trace, Options{
		// A tiny state space with heavy elitism converges to duplicate
		// genomes quickly.
		States: 2, Population: 32, Generations: 10, Seed: 2, Warmup: 64, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Racing.Deduped == 0 && res.Racing.MemoHits == 0 {
		t.Fatal("no dedup and no memo hits on a 2-state search")
	}
}

// BenchmarkSearchAdaptive races the adaptive evaluator against the
// exact oracle on a real workload trace — the PR's headline speedup.
// Both arms reset the fitness memo every iteration so the measurement
// isolates the ladder, not cross-run memoization.
func BenchmarkSearchAdaptive(b *testing.B) {
	trace := workloadTrace(b, "vortex", 1<<20)
	opt := Options{States: 8, Population: 128, Generations: 25, Seed: 17, Warmup: 64}
	bytes := int64(opt.Population*(opt.Generations+1)) * int64(len(trace)) / 8
	b.Run("exact", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			if _, err := Search(trace, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		aopt := opt
		aopt.Adaptive = true
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			fidelity.ResetMemo()
			if _, err := Search(trace, aopt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchMemoWarm measures the repeat-search win: an identical
// search over a warm fitness memo against a cold one.
func BenchmarkSearchMemoWarm(b *testing.B) {
	trace := workloadTrace(b, "vortex", 1<<19)
	opt := Options{States: 8, Population: 64, Generations: 15, Seed: 17, Warmup: 64, Adaptive: true}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fidelity.ResetMemo()
			if _, err := Search(trace, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		fidelity.ResetMemo()
		if _, err := Search(trace, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Search(trace, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
