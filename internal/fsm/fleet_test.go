package fsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
)

// TestFleetMatchesSimulatePacked is the fleet's primary differential:
// mixed machine sizes (including deliberate duplicates), every ragged
// head/tail combination, a sweep of skips, and both the sequential and
// the sharded pass must all be bit-identical to per-machine RunFrom
// from the start state.
func TestFleetMatchesSimulatePacked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		count := 1 + rng.Intn(20)
		machines := make([]*Machine, count)
		for j := range machines {
			if j > 0 && rng.Intn(3) == 0 {
				machines[j] = machines[rng.Intn(j)] // force dedup coverage
			} else {
				machines[j] = randomMachine(rng, 1+rng.Intn(40))
			}
		}
		fl, err := NewFleet(machines)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 7, 8, 9, 64, 65, 200, fleetSegEvents - 3, fleetSegEvents, fleetSegEvents + 11} {
			bits := randomBits(rng, n)
			for _, skip := range []int{0, 1, 3, 8, 17, n / 2, n, n + 5} {
				for _, workers := range []int{1, 4} {
					got := fl.Run(workers, bits.Words(), n, skip, nil)
					if len(got) != count {
						t.Fatalf("len = %d, want %d", len(got), count)
					}
					for j, m := range machines {
						tab, err := CompileBlockTable(m)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := tab.RunFrom(tab.StartState(), bits.Words(), n, skip, nil)
						if got[j] != want {
							t.Fatalf("machines=%d n=%d skip=%d workers=%d machine %d: fleet %+v, single %+v",
								count, n, skip, workers, j, got[j], want)
						}
					}
				}
			}
		}
	}
}

// TestFleetDedup checks that structural duplicates collapse into one
// walk and still receive independent (correct) results.
func TestFleetDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMachine(rng, 6)
	b := randomMachine(rng, 11)
	aCopy := a.Clone()
	aCopy.Name = "renamed" // Name must not defeat dedup
	fl, err := NewFleet([]*Machine{a, b, aCopy, a, b})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Len() != 5 || fl.Unique() != 2 || fl.Deduped() != 3 {
		t.Fatalf("Len=%d Unique=%d Deduped=%d, want 5/2/3", fl.Len(), fl.Unique(), fl.Deduped())
	}
	bits := randomBits(rng, 777)
	res := fl.Run(1, bits.Words(), bits.Len(), 13, nil)
	if res[0] != res[2] || res[0] != res[3] || res[1] != res[4] {
		t.Fatalf("duplicate slots disagree: %+v", res)
	}
	if want := a.SimulateBits(bits, 13); res[0] != want {
		t.Fatalf("fleet %+v, machine %+v", res[0], want)
	}
}

// TestFleetEmpty covers the zero-machine and zero-trace edges.
func TestFleetEmpty(t *testing.T) {
	fl, err := NewFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := fl.Run(1, nil, 100, 0, nil); len(res) != 0 {
		t.Fatalf("empty fleet returned %v", res)
	}
	rng := rand.New(rand.NewSource(3))
	fl, err = NewFleet([]*Machine{randomMachine(rng, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if res := fl.Run(1, nil, 0, 0, nil); res[0] != (SimResult{}) {
		t.Fatalf("empty trace returned %+v", res[0])
	}
}

// TestFleetRejectsInvalid checks the error path for machines the block
// kernel cannot represent.
func TestFleetRejectsInvalid(t *testing.T) {
	if _, err := NewFleet([]*Machine{nil}); err == nil {
		t.Fatal("nil machine accepted")
	}
	bad := &Machine{Output: []bool{false}, Next: [][2]int{{0, 7}}}
	if _, err := NewFleet([]*Machine{bad}); err == nil {
		t.Fatal("invalid machine accepted")
	}
	big := &Machine{Output: make([]bool, 300), Next: make([][2]int, 300)}
	if _, err := NewFleet([]*Machine{big}); err == nil {
		t.Fatal("300-state machine accepted")
	}
}

// TestPackedEntryPointsClampOverlongN is the bounds-guard regression:
// every packed entry point must clamp an event count beyond the words'
// capacity instead of reading out of range, and the clamped run must
// equal the run at the true length.
func TestPackedEntryPointsClampOverlongN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMachine(rng, 9)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(rng, 130)
	words, n := bits.Words(), bits.Len()
	over := len(words)*64 + 129 // far past capacity
	capEvents := len(words) * 64

	wantSingle := m.SimulateScalar(append(bits.Bools(), make([]bool, capEvents-n)...), 5)
	if got, _ := tab.RunFrom(tab.StartState(), words, over, 5, nil); got != wantSingle {
		t.Fatalf("RunFrom over-long: %+v, want %+v", got, wantSingle)
	}
	fl := FleetOfTables([]*BlockTable{tab})
	if got := fl.Run(1, words, over, 5, nil); got[0] != wantSingle {
		t.Fatalf("Fleet.Run over-long: %+v, want %+v", got[0], wantSingle)
	}
	var pos []int32
	for i := 0; i < n; i += 3 {
		pos = append(pos, int32(i))
	}
	wm, we := tab.RunSampled(m.Start, words, capEvents, pos, nil)
	if gm, ge := tab.RunSampled(m.Start, words, over, pos, nil); gm != wm || ge != we {
		t.Fatalf("RunSampled over-long: (%d,%d), want (%d,%d)", gm, ge, wm, we)
	}
	if gm, ge := m.RunSampledScalar(m.Start, words, over, pos); gm != wm || ge != we {
		t.Fatalf("RunSampledScalar over-long: (%d,%d), want (%d,%d)", gm, ge, wm, we)
	}
}

// TestFleetRunSampledMatchesBlockTable checks the batched update-all
// replay against the per-machine kernel and the scalar oracle.
func TestFleetRunSampledMatchesBlockTable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		count := 1 + rng.Intn(10)
		machines := make([]*Machine, count)
		for j := range machines {
			machines[j] = randomMachine(rng, 1+rng.Intn(30))
		}
		fl, err := NewFleet(machines)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(400)
		bits := randomBits(rng, n)
		pos := make([][]int32, count)
		for j := range pos {
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 {
					pos[j] = append(pos[j], int32(i))
				}
			}
		}
		got := fl.RunSampled(bits.Words(), n, pos)
		for j, m := range machines {
			tab, err := CompileBlockTable(m)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := tab.RunSampled(m.Start, bits.Words(), n, pos[j], nil)
			if got[j] != want {
				t.Fatalf("trial %d machine %d: fleet %d, single %d", trial, j, got[j], want)
			}
			scalar, _ := m.RunSampledScalar(m.Start, bits.Words(), n, pos[j])
			if got[j] != scalar {
				t.Fatalf("trial %d machine %d: fleet %d, scalar %d", trial, j, got[j], scalar)
			}
		}
	}
}

// TestFleetReplayGatedMatchesBlockTable checks the batched confidence
// replay (including dedup fan-out) against the per-machine kernel.
func TestFleetReplayGatedMatchesBlockTable(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		count := 1 + rng.Intn(8)
		machines := make([]*Machine, count)
		for j := range machines {
			if j > 0 && rng.Intn(3) == 0 {
				machines[j] = machines[rng.Intn(j)]
			} else {
				machines[j] = randomMachine(rng, 1+rng.Intn(20))
			}
		}
		fl, err := NewFleet(machines)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(300)
		correct, valid := randomBits(rng, n), randomBits(rng, n)
		gf, gfc, err := fl.ReplayGated(correct.Words(), valid.Words(), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, m := range machines {
			tab, err := CompileBlockTable(m)
			if err != nil {
				t.Fatal(err)
			}
			wf, wfc, err := tab.ReplayGated(correct.Words(), valid.Words(), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gf[j] != wf || gfc[j] != wfc {
				t.Fatalf("trial %d machine %d: fleet (%d,%d), single (%d,%d)",
					trial, j, gf[j], gfc[j], wf, wfc)
			}
		}
	}
}

// TestFleetConcurrent hammers one shared fleet from many goroutines
// mixing sequential and sharded passes — the -race stress for the
// kernel's immutability claim.
func TestFleetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	machines := make([]*Machine, 24)
	for j := range machines {
		machines[j] = randomMachine(rng, 2+rng.Intn(20))
	}
	fl, err := NewFleet(machines)
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(rng, 5000)
	words, n := bits.Words(), bits.Len()
	want := fl.Run(1, words, n, 7, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got := fl.Run(1+g%4, words, n, 7, nil)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d iter %d: results diverged", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFleet drives a small mixed fleet from fuzzed machine bytes and
// stream content, asserting against per-machine RunFrom.
func FuzzFleet(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 9}, []byte{0xAA, 0x0F}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0x01, 0xFF, 0x3C}, uint8(5))
	f.Fuzz(func(t *testing.T, genes, stream []byte, skip8 uint8) {
		if len(genes) == 0 {
			return
		}
		at := func(i int) int { return int(genes[i%len(genes)]) }
		count := 1 + at(0)%6
		machines := make([]*Machine, count)
		g := 1
		for j := range machines {
			states := 1 + at(g)%12
			g++
			m := &Machine{
				Output: make([]bool, states),
				Next:   make([][2]int, states),
				Start:  at(g) % states,
			}
			g++
			for s := 0; s < states; s++ {
				m.Output[s] = at(g)%2 == 1
				m.Next[s] = [2]int{at(g+1) % states, at(g+2) % states}
				g += 3
			}
			machines[j] = m
		}
		bits := &bitseq.Bits{}
		for _, b := range stream {
			for k := 0; k < 8; k++ {
				bits.AppendBit(int(b >> uint(k) & 1))
			}
		}
		n := bits.Len()
		if len(genes) > 2 {
			n -= at(2) % (n + 1)
		}
		skip := int(skip8)
		fl, err := NewFleet(machines)
		if err != nil {
			t.Fatal(err)
		}
		got := fl.Run(1+at(0)%3, bits.Words(), n, skip, nil)
		for j, m := range machines {
			tab, err := CompileBlockTable(m)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := tab.RunFrom(tab.StartState(), bits.Words(), n, skip, nil); got[j] != want {
				t.Fatalf("machine %d: fleet %+v, single %+v (n=%d skip=%d)", j, got[j], want, n, skip)
			}
		}
	})
}

// BenchmarkFleet measures the fleet's aggregate throughput scaling
// curve, sequential and sharded, against one RunFrom pass per machine at
// the same machine counts.
func BenchmarkFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	bits := randomBits(rng, 1<<18)
	words, n := bits.Words(), bits.Len()
	for _, machines := range []int{1, 16, 64, 256} {
		ms := make([]*Machine, machines)
		tabs := make([]*BlockTable, machines)
		for j := range ms {
			ms[j] = randomMachine(rng, 4+j%13)
			var err error
			if tabs[j], err = CompileBlockTable(ms[j]); err != nil {
				b.Fatal(err)
			}
		}
		fl := FleetOfTables(tabs)
		bytes := int64(machines * n / 8)
		b.Run(fmt.Sprintf("fleet/n%d", machines), func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fl.Run(1, words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("fleet-parallel/n%d", machines), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				fl.Run(0, words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("per-machine/n%d", machines), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				for _, t := range tabs {
					t.RunFrom(t.StartState(), words, n, 0, nil)
				}
			}
		})
	}
}
