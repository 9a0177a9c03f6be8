package fsm

import (
	"math/rand"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
)

// randomMachine builds a valid machine from a seeded source; the block
// kernels must match the scalar oracle on any of them.
func randomMachine(rng *rand.Rand, states int) *Machine {
	m := &Machine{
		Output: make([]bool, states),
		Next:   make([][2]int, states),
		Start:  rng.Intn(states),
	}
	for s := 0; s < states; s++ {
		m.Output[s] = rng.Intn(2) == 1
		m.Next[s] = [2]int{rng.Intn(states), rng.Intn(states)}
	}
	return m
}

func randomBits(rng *rand.Rand, n int) *bitseq.Bits {
	b := &bitseq.Bits{}
	for i := 0; i < n; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	return b
}

// scalarRunFrom is the bit-at-a-time oracle for RunFrom: n events from
// the given state, the first skip unscored, returning the tally and the
// exit state.
func scalarRunFrom(m *Machine, state int, bits *bitseq.Bits, n, skip int) (SimResult, int) {
	var res SimResult
	for i := 0; i < n; i++ {
		b := bits.At(i)
		if i >= skip {
			res.Total++
			if m.Output[state] == b {
				res.Correct++
			}
		}
		state = m.Step(state, b)
	}
	return res, state
}

// scalarReplayGated is the bit-at-a-time oracle for ReplayGated.
func scalarReplayGated(m *Machine, correct, valid *bitseq.Bits, n int) (flagged, flaggedCorrect int) {
	state := m.Start
	for i := 0; i < n; i++ {
		cb := correct.At(i)
		if valid.At(i) && m.Output[state] {
			flagged++
			if cb {
				flaggedCorrect++
			}
		}
		state = m.Step(state, cb)
	}
	return flagged, flaggedCorrect
}

// TestSimulatePackedMatchesScalar sweeps machines, lengths and skips —
// including every sub-byte ragged head/tail combination — against the
// scalar oracle.
func TestSimulatePackedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		states := 1 + rng.Intn(40)
		m := randomMachine(rng, states)
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 100, 500} {
			bits := randomBits(rng, n)
			bools := bits.Bools()
			for _, skip := range []int{0, 1, 3, 8, 17, n / 2, n, n + 5} {
				want := m.SimulateScalar(bools, skip)
				got, _ := tab.RunFrom(tab.StartState(), bits.Words(), n, skip, nil)
				if got != want {
					t.Fatalf("states=%d n=%d skip=%d: packed %+v, scalar %+v", states, n, skip, got, want)
				}
			}
		}
	}
}

// TestRunFromMatchesScalarFromState checks the arbitrary-entry-state
// variant, whose exit state must also agree with the runner walk.
func TestRunFromMatchesScalarFromState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		m := randomMachine(rng, 1+rng.Intn(30))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(300)
		bits := randomBits(rng, n)
		start := rng.Intn(m.NumStates())
		skip := rng.Intn(n + 2)

		want, state := scalarRunFrom(m, start, bits, n, skip)
		got, end := tab.RunFrom(start, bits.Words(), n, skip, nil)
		if got != want || end != state {
			t.Fatalf("trial %d: got %+v end %d, want %+v end %d", trial, got, end, want, state)
		}
	}
}

// TestRunSampledMatchesScalar checks the masked replay: advance every
// bit, score only at sampled positions.
func TestRunSampledMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := randomMachine(rng, 1+rng.Intn(30))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(300)
		bits := randomBits(rng, n)
		var pos []int32
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				pos = append(pos, int32(i))
			}
		}
		start := rng.Intn(m.NumStates())

		wantMiss, state := m.RunSampledScalar(start, bits.Words(), n, pos)
		miss, end := tab.RunSampled(start, bits.Words(), n, pos, nil)
		if miss != wantMiss || end != state {
			t.Fatalf("trial %d: got %d misses end %d, want %d end %d", trial, miss, end, wantMiss, state)
		}
	}
}

// TestReplayGatedMatchesScalar checks the confidence replay against a
// direct runner walk of the gated loop.
func TestReplayGatedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		m := randomMachine(rng, 1+rng.Intn(30))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(300)
		correct, valid := randomBits(rng, n), randomBits(rng, n)

		wantF, wantFC := scalarReplayGated(m, correct, valid, n)
		f, fc, err := tab.ReplayGated(correct.Words(), valid.Words(), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f != wantF || fc != wantFC {
			t.Fatalf("trial %d: got (%d,%d), want (%d,%d)", trial, f, fc, wantF, wantFC)
		}
	}
}

// TestBlockRunnerChunkedMatchesSimulate feeds the same stream in
// ragged chunks through every Feed entry point and requires the exact
// Simulate tally and exit state.
func TestBlockRunnerChunkedMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		m := randomMachine(rng, 1+rng.Intn(30))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(500)
		bits := randomBits(rng, n)
		bools := bits.Bools()
		skip := rng.Intn(n + 2)
		want := m.SimulateScalar(bools, skip)

		r := NewBlockRunner(tab, skip)
		for i := 0; i < n; {
			chunk := 1 + rng.Intn(13)
			if i+chunk > n {
				chunk = n - i
			}
			switch rng.Intn(3) {
			case 0:
				sub := &bitseq.Bits{}
				for j := 0; j < chunk; j++ {
					sub.Append(bools[i+j])
				}
				r.FeedBits(sub)
			case 1:
				r.FeedBools(bools[i : i+chunk])
			default:
				for j := 0; j < chunk; j++ {
					r.FeedBit(bools[i+j])
				}
			}
			i += chunk
		}
		if got := r.Result(); got != want {
			t.Fatalf("trial %d: runner %+v, scalar %+v", trial, got, want)
		}
		// Exit state must match a full runner walk.
		run := m.NewRunner()
		for _, b := range bools {
			run.Update(b)
		}
		if r.State() != run.State() {
			t.Fatalf("trial %d: runner state %d, oracle %d", trial, r.State(), run.State())
		}
		// Result mid-stream then continued feeding stays exact.
		r2 := NewBlockRunner(tab, skip)
		half := n / 2
		r2.FeedBools(bools[:half])
		_ = r2.Result()
		r2.FeedBools(bools[half:])
		if got := r2.Result(); got != want {
			t.Fatalf("trial %d: split runner %+v, scalar %+v", trial, got, want)
		}
	}
}

// TestSimulateUsesBlockKernel checks Simulate/SimulateBits agree with
// the scalar oracle on both sides of the block-table bound: a machine
// within it takes the block kernel, one over it the scalar fallback.
func TestSimulateUsesBlockKernel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(6))
	bits := randomBits(rng, 1000)
	bools := bits.Bools()
	for _, states := range []int{23, maxBlockStates + 1} {
		m := randomMachine(rng, states)
		if tabled := BlockTableFor(m) != nil; tabled != (states <= maxBlockStates) {
			t.Fatalf("%d states: block table present = %v", states, tabled)
		}
		want := m.SimulateScalar(bools, 9)
		if got := m.Simulate(bools, 9); got != want {
			t.Fatalf("%d states: Simulate %+v, scalar %+v", states, got, want)
		}
		if got := m.SimulateBits(bits, 9); got != want {
			t.Fatalf("%d states: SimulateBits %+v, scalar %+v", states, got, want)
		}
	}
}

// TestBlockTableForVerifiesContent: mutating a machine after its table
// was cached must recompile, not serve the stale closure.
func TestBlockTableForVerifiesContent(t *testing.T) {
	m := &Machine{
		Output: []bool{false, true},
		Next:   [][2]int{{0, 1}, {0, 1}},
		Start:  0,
	}
	t1 := BlockTableFor(m)
	if t1 == nil {
		t.Fatal("no table")
	}
	m.Output[0] = true
	t2 := BlockTableFor(m)
	if t2 == nil {
		t.Fatal("no table after mutation")
	}
	if !t2.compiledFrom(m) {
		t.Fatal("table does not match mutated machine")
	}
	if t1.compiledFrom(m) {
		t.Fatal("stale table claims to match mutated machine")
	}
}

// TestBlockTableForRejectsOversized: machines beyond the uint8 state
// bound fall back to scalar (nil table) rather than truncating.
func TestBlockTableForRejectsOversized(t *testing.T) {
	const n = maxBlockStates + 1
	m := &Machine{Output: make([]bool, n), Next: make([][2]int, n)}
	for s := range m.Next {
		m.Next[s] = [2]int{(s + 1) % n, s}
	}
	if BlockTableFor(m) != nil {
		t.Fatal("expected nil table for oversized machine")
	}
	if _, err := CompileBlockTable(m); err == nil {
		t.Fatal("expected CompileBlockTable error for oversized machine")
	}
	// The boundary case compiles fine and still matches the oracle.
	big := m.Clone()
	big.Output = big.Output[:maxBlockStates]
	big.Next = big.Next[:maxBlockStates]
	for s := range big.Next {
		big.Next[s] = [2]int{(s + 1) % maxBlockStates, s}
	}
	tab, err := CompileBlockTable(big)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	bits := randomBits(rng, 777)
	got, _ := tab.RunFrom(tab.StartState(), bits.Words(), 777, 5, nil)
	if want := big.SimulateScalar(bits.Bools(), 5); got != want {
		t.Fatalf("256-state machine: packed %+v, scalar %+v", got, want)
	}
}

// TestBlockTableCacheConcurrent hammers the shared cache from many
// goroutines over overlapping machine content — the race-stress target
// for concurrent designs sharing tables.
func TestBlockTableCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const distinct = 8
	machines := make([]*Machine, distinct)
	streams := make([]*bitseq.Bits, distinct)
	want := make([]SimResult, distinct)
	for i := range machines {
		machines[i] = randomMachine(rng, 2+rng.Intn(30))
		streams[i] = randomBits(rng, 2048)
		want[i] = machines[i].SimulateScalar(streams[i].Bools(), 3)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 50; iter++ {
				i := r.Intn(distinct)
				// Fresh clone: same content, different identity — the
				// content address must dedup them.
				m := machines[i].Clone()
				tab := BlockTableFor(m)
				if tab == nil {
					t.Error("nil table")
					return
				}
				if got, _ := tab.RunFrom(tab.StartState(), streams[i].Words(), streams[i].Len(), 3, nil); got != want[i] {
					t.Errorf("machine %d: got %+v, want %+v", i, got, want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestBlockKernelAllocs: the packed kernels and the warmed Simulate
// paths must allocate nothing per call.
func TestBlockKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMachine(rng, 17)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(rng, 4096)
	words, n := bits.Words(), bits.Len()
	bools := bits.Bools()
	var pos []int32
	for i := 0; i < n; i += 7 {
		pos = append(pos, int32(i))
	}
	check := func(name string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", name, avg)
		}
	}
	check("RunFrom", func() { tab.RunFrom(tab.StartState(), words, n, 11, nil) })
	check("RunSampled", func() { tab.RunSampled(3, words, n, pos, nil) })
	check("ReplayGated", func() { tab.ReplayGated(words, words, n, nil) })
	check("Machine.SimulateBits", func() { m.SimulateBits(bits, 11) })
	check("Machine.Simulate", func() { m.Simulate(bools, 11) })
}

// BenchmarkSimulatePacked compares the blocked kernel against the
// scalar oracle on the same stream; the perf gate tracks the blocked
// variant, and the acceptance bar is blocked ≥3× faster per event.
func BenchmarkSimulatePacked(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randomMachine(rng, 16)
	bits := randomBits(rng, 1<<16)
	words, n := bits.Words(), bits.Len()
	bools := bits.Bools()
	tab, err := CompileBlockTable(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(int64(n) / 8)
		for i := 0; i < b.N; i++ {
			tab.RunFrom(tab.StartState(), words, n, 64, nil)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(n) / 8)
		for i := 0; i < b.N; i++ {
			m.SimulateScalar(bools, 64)
		}
	})
}

// BenchmarkCompileBlockTable prices table construction — the one-time
// cost a cache miss pays.
func BenchmarkCompileBlockTable(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := randomMachine(rng, 32)
	for i := 0; i < b.N; i++ {
		if _, err := CompileBlockTable(m); err != nil {
			b.Fatal(err)
		}
	}
}
