package fsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
)

// runnyBits generates a biased stream with geometric run structure — the
// workload the span kernel exists for. Alternating taken/not-taken runs
// with means 2·meanRun·bias and 2·meanRun·(1−bias) give overall bias
// `bias` and mean run length meanRun.
func runnyBits(rng *rand.Rand, n int, bias, meanRun float64) *bitseq.Bits {
	b := &bitseq.Bits{}
	one := rng.Float64() < bias
	for b.Len() < n {
		mean := 2 * meanRun * (1 - bias)
		if one {
			mean = 2 * meanRun * bias
		}
		k := 1
		if mean > 1 {
			for rng.Float64() < 1-1/mean {
				k++
			}
		}
		for j := 0; j < k && b.Len() < n; j++ {
			b.Append(one)
		}
		one = !one
	}
	return b
}

// spanIndexOf is the tests' run-index shorthand.
func spanIndexOf(bits *bitseq.Bits) []bitseq.Run {
	return bitseq.Runs(bits.Words(), bits.Len(), bitseq.DefaultMinRunBytes)
}

// indexCase is one point of the {nil, index} axis the entry-point tests
// are driven over: the same call must match the scalar oracle with no
// run index (the byte kernel) and with one (the span kernel).
type indexCase struct {
	name string
	runs []bitseq.Run
}

func indexCases(bits *bitseq.Bits) []indexCase {
	return []indexCase{{"nil", nil}, {"index", spanIndexOf(bits)}}
}

// TestSpanWalkMatchesScalar checks every power-table walk against 8k
// scalar steps, for both byte values and run lengths crossing several
// level boundaries.
func TestSpanWalkMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		m := randomMachine(rng, 1+rng.Intn(maxBlockStates))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 5, 8, 13, 31, 64, 100} {
			for b := 0; b < 2; b++ {
				s0 := rng.Intn(len(m.Output))
				wantS, wantMiss := s0, 0
				for e := 0; e < 8*k; e++ {
					if m.Output[wantS] != (b == 1) {
						wantMiss++
					}
					wantS = m.Step(wantS, b == 1)
				}
				gotS, gotMiss := tab.span.walk(uint8(s0), k, b)
				if int(gotS) != wantS || gotMiss != wantMiss {
					t.Fatalf("trial %d k=%d b=%d: walk (%d,%d), scalar (%d,%d)",
						trial, k, b, gotS, gotMiss, wantS, wantMiss)
				}
			}
		}
	}
}

// TestRunFromSpansMatchesRunFrom sweeps biased runny streams with random
// skips — every ragged alignment of run boundaries against the kernel's
// warm-up/head/body/tail phases — through RunFrom with and without a
// run index, against the scalar oracle.
func TestRunFromSpansMatchesRunFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 60; trial++ {
		m := randomMachine(rng, 1+rng.Intn(40))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(2000)
		bias := 0.5 + rng.Float64()*0.49
		bits := runnyBits(rng, n, bias, float64(1+rng.Intn(200)))
		skip := rng.Intn(n + 2)
		state := rng.Intn(len(m.Output))
		wantRes, wantEnd := scalarRunFrom(m, state, bits, n, skip)
		for _, ic := range indexCases(bits) {
			gotRes, gotEnd := tab.RunFrom(state, bits.Words(), n, skip, ic.runs)
			if gotRes != wantRes || gotEnd != wantEnd {
				t.Fatalf("trial %d %s (n=%d skip=%d runs=%d): kernel (%+v,%d), scalar (%+v,%d)",
					trial, ic.name, n, skip, len(ic.runs), gotRes, gotEnd, wantRes, wantEnd)
			}
		}
	}
}

// TestSimulatePackedSpansMatchesScalar pins whole-stream replay from the
// start state on strongly biased streams to the scalar oracle, with and
// without a run index.
func TestSimulatePackedSpansMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		m := randomMachine(rng, 1+rng.Intn(30))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(1500)
		bits := runnyBits(rng, n, 0.9, 40)
		skip := rng.Intn(n + 2)
		want := m.SimulateScalar(bits.Bools(), skip)
		for _, ic := range indexCases(bits) {
			if got, _ := tab.RunFrom(tab.StartState(), bits.Words(), n, skip, ic.runs); got != want {
				t.Fatalf("trial %d %s: kernel %+v, scalar %+v", trial, ic.name, got, want)
			}
		}
	}
}

// TestRunSampledSpansMatchesRunSampled sweeps random sampled-position
// subsets — empty, sparse, dense, clustered inside runs — through
// RunSampled with and without a run index, against the scalar oracle.
func TestRunSampledSpansMatchesRunSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 60; trial++ {
		m := randomMachine(rng, 1+rng.Intn(40))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(2000)
		bits := runnyBits(rng, n, 0.5+rng.Float64()*0.49, float64(1+rng.Intn(150)))
		words := bits.Words()
		var pos []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				pos = append(pos, int32(i))
			}
		}
		state := rng.Intn(len(m.Output))
		wantM, wantEnd := m.RunSampledScalar(state, words, n, pos)
		for _, ic := range indexCases(bits) {
			gotM, gotEnd := tab.RunSampled(state, words, n, pos, ic.runs)
			if gotM != wantM || gotEnd != wantEnd {
				t.Fatalf("trial %d %s (n=%d pos=%d): kernel (%d,%d), scalar (%d,%d)",
					trial, ic.name, n, len(pos), gotM, gotEnd, wantM, wantEnd)
			}
		}
	}
}

// TestReplayGatedSpansMatchesReplayGated sweeps gated replays whose
// valid stream mixes saturated stretches (where runs skip) with sparse
// gating (where they fall back), with and without a run index, against
// the scalar oracle.
func TestReplayGatedSpansMatchesReplayGated(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 60; trial++ {
		m := randomMachine(rng, 1+rng.Intn(40))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(2000)
		correct := runnyBits(rng, n, 0.5+rng.Float64()*0.49, float64(1+rng.Intn(150)))
		// Valid saturates in long stretches, like a warm predictor table.
		valid := runnyBits(rng, n, 0.95, 200)
		wantF, wantFC := scalarReplayGated(m, correct, valid, n)
		for _, ic := range indexCases(correct) {
			gotF, gotFC, err := tab.ReplayGated(correct.Words(), valid.Words(), n, ic.runs)
			if err != nil {
				t.Fatal(err)
			}
			if gotF != wantF || gotFC != wantFC {
				t.Fatalf("trial %d %s (n=%d runs=%d): kernel (%d,%d), scalar (%d,%d)",
					trial, ic.name, n, len(ic.runs), gotF, gotFC, wantF, wantFC)
			}
		}
	}
}

// TestGatedStreamsMismatchError pins the satellite fix: mismatched
// gated streams are an explicit error, not a silent truncation — on the
// single-machine kernel and the fleet, with and without a run index.
func TestGatedStreamsMismatchError(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	m := randomMachine(rng, 8)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFleet([]*Machine{m})
	if err != nil {
		t.Fatal(err)
	}
	short, long := make([]uint64, 2), make([]uint64, 3)
	index := []bitseq.Run{{Start: 0, Bytes: 8}}

	for _, runs := range [][]bitseq.Run{nil, index} {
		if _, _, err := tab.ReplayGated(short, long, 100, runs); err == nil {
			t.Fatalf("BlockTable.ReplayGated (runs=%d) accepted mismatched streams", len(runs))
		}
		if _, _, err := fl.ReplayGated(long, short, 100, runs); err == nil {
			t.Fatalf("Fleet.ReplayGated (runs=%d) accepted mismatched streams", len(runs))
		}
	}
	if _, _, err := tab.ReplayGated(short, short, 129, nil); err == nil {
		t.Fatal("ReplayGated accepted n beyond the streams' capacity")
	}
	if _, _, err := tab.ReplayGated(short, short, 128, nil); err != nil {
		t.Fatalf("ReplayGated rejected an exactly-full stream: %v", err)
	}
	if f, fc, err := tab.ReplayGated(short, short, -5, nil); err != nil || f != 0 || fc != 0 {
		t.Fatalf("ReplayGated on negative n: (%d,%d,%v), want zeros", f, fc, err)
	}
}

// TestFleetRunSpansMatchesRun checks the fleet span path — run-boundary
// segment cutting, per-lane power walks, the scoreFrom straddle — and
// the plain fleet pass against the scalar oracle, sequential and
// sharded, including deduped twins.
func TestFleetRunSpansMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		count := 1 + rng.Intn(12)
		machines := make([]*Machine, count)
		for j := range machines {
			if j > 0 && rng.Intn(3) == 0 {
				machines[j] = machines[rng.Intn(j)]
			} else {
				machines[j] = randomMachine(rng, 1+rng.Intn(25))
			}
		}
		fl, err := NewFleet(machines)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(4000)
		bits := runnyBits(rng, n, 0.5+rng.Float64()*0.49, float64(1+rng.Intn(300)))
		bools := bits.Bools()
		skip := rng.Intn(n + 2)
		for _, ic := range indexCases(bits) {
			for _, workers := range []int{1, 3} {
				got := fl.Run(workers, bits.Words(), n, skip, ic.runs)
				for j, m := range machines {
					if want := m.SimulateScalar(bools, skip); got[j] != want {
						t.Fatalf("trial %d %s workers=%d machine %d: fleet %+v, scalar %+v",
							trial, ic.name, workers, j, got[j], want)
					}
				}
			}
		}
	}
}

// TestFleetReplayGatedSpansMatchesBlockTable checks the fleet's gated
// replay, with and without a run index, against the scalar oracle.
func TestFleetReplayGatedSpansMatchesBlockTable(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 25; trial++ {
		count := 1 + rng.Intn(8)
		machines := make([]*Machine, count)
		for j := range machines {
			machines[j] = randomMachine(rng, 1+rng.Intn(20))
		}
		fl, err := NewFleet(machines)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(2000)
		correct := runnyBits(rng, n, 0.9, 100)
		valid := runnyBits(rng, n, 0.97, 300)
		for _, ic := range indexCases(correct) {
			gf, gfc, err := fl.ReplayGated(correct.Words(), valid.Words(), n, ic.runs)
			if err != nil {
				t.Fatal(err)
			}
			for j, m := range machines {
				if wf, wfc := scalarReplayGated(m, correct, valid, n); gf[j] != wf || gfc[j] != wfc {
					t.Fatalf("trial %d %s machine %d: fleet (%d,%d), scalar (%d,%d)",
						trial, ic.name, j, gf[j], gfc[j], wf, wfc)
				}
			}
		}
	}
}

// TestSpanStatsAdvance checks the metrics counters actually move when
// runs are skipped.
func TestSpanStatsAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	m := randomMachine(rng, 10)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := runnyBits(rng, 8000, 0.97, 200)
	runs := spanIndexOf(bits)
	if len(runs) == 0 {
		t.Fatal("runny stream produced no runs")
	}
	before := SpanStats()
	tab.RunFrom(tab.StartState(), bits.Words(), bits.Len(), 0, runs)
	after := SpanStats()
	if after.Runs <= before.Runs || after.SkippedEvents <= before.SkippedEvents {
		t.Fatalf("span counters did not advance: before %+v, after %+v", before, after)
	}
	if after.TableBytes == 0 {
		t.Fatal("power-table bytes unaccounted")
	}
}

// TestSpanTableConcurrent hammers one shared span table from many
// goroutines demanding ascending levels concurrently — the -race stress
// for the lazy level growth.
func TestSpanTableConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := randomMachine(rng, 30)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := runnyBits(rng, 20000, 0.96, 150)
	words, n := bits.Words(), bits.Len()
	runs := spanIndexOf(bits)
	want, _ := tab.RunFrom(tab.StartState(), words, n, 5, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				if got, _ := tab.RunFrom(tab.StartState(), words, n, 5, runs); got != want {
					t.Errorf("goroutine %d iter %d: %+v, want %+v", g, it, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSpanKernel measures RunFrom with a run index (span kernel)
// against the same call with nil (block kernel) on 95%-bias streams across run-length regimes — short blips (runlen
// 64: runs barely clear the index threshold) up to loop-dominated
// structure (runlen 512+: a back-edge resolving the same way for
// hundreds of iterations, the behaviour the paper's gcc/go traces
// show). The span/512 case carries the ≥3× acceptance bar.
func BenchmarkSpanKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := randomMachine(rng, 16)
	tab, err := CompileBlockTable(m)
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 22
	bytes := int64(n) / 8

	for _, runlen := range []int{64, 512, 4096} {
		bits := runnyBits(rng, n, 0.95, float64(runlen))
		words := bits.Words()
		runs := spanIndexOf(bits)
		b.Run(fmt.Sprintf("block/runlen=%d", runlen), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("span/runlen=%d", runlen), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, runs)
			}
		})
		b.Run(fmt.Sprintf("index/runlen=%d", runlen), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)
			}
		})
	}
}

// BenchmarkSpanBias sweeps the stream bias at fixed run structure
// (mean run 256 events) — the source of the EXPERIMENTS.md bias-scaling
// table; "off" passes a nil run index, "on" the stream's index. At
// bias 0.5 runs split evenly between the two values; toward
// 0.99 the stream approaches one solid run per index entry.
func BenchmarkSpanBias(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randomMachine(rng, 16)
	tab, err := CompileBlockTable(m)
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 22
	bytes := int64(n) / 8
	for _, bias := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		bits := runnyBits(rng, n, bias, 256)
		words := bits.Words()
		runs := spanIndexOf(bits)
		b.Run(fmt.Sprintf("off/bias=%g", bias), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("on/bias=%g", bias), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, runs)
			}
		})
	}
}
