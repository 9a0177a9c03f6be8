package fsm

import (
	"math/rand"
	"testing"

	"fsmpredict/internal/bitseq"
)

// FuzzSpanKernel differentially fuzzes RunFrom with a run index (the
// span kernel) against the same call with nil (the block kernel) and the
// scalar machine walk: arbitrary stream bytes
// (which the fuzzer will steer toward run-boundary edge cases), a seeded
// machine, and arbitrary skip. Any divergence — misses, exit state, or a
// panic in the index walk — is a finding.
func FuzzSpanKernel(f *testing.F) {
	f.Add(int64(1), 10, []byte{0x00, 0x00, 0xFF, 0xFF, 0xA5, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add(int64(2), 0, []byte{0xFF})
	f.Add(int64(3), 100, make([]byte, 64))
	f.Fuzz(func(t *testing.T, seed int64, skip int, stream []byte) {
		if len(stream) > 1<<12 {
			stream = stream[:1<<12]
		}
		if skip < 0 {
			skip = 0
		}
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(rng, 1+rng.Intn(maxBlockStates))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		bits := &bitseq.Bits{}
		for _, b := range stream {
			for k := 0; k < 8; k++ {
				bits.Append(b>>uint(k)&1 == 1)
			}
		}
		// A ragged tail exercises the scalar phases.
		for k := 0; k < int(seed&7); k++ {
			bits.Append(rng.Intn(2) == 1)
		}
		n := bits.Len()
		if skip > n {
			skip = skip % (n + 1)
		}
		words := bits.Words()
		runs := bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)

		want, _ := tab.RunFrom(tab.StartState(), words, n, skip, nil)
		got, _ := tab.RunFrom(tab.StartState(), words, n, skip, runs)
		if got != want {
			t.Fatalf("span %+v, block %+v (n=%d skip=%d runs=%d)", got, want, n, skip, len(runs))
		}
		scalar := m.SimulateScalar(bits.Bools(), skip)
		if got != scalar {
			t.Fatalf("span %+v, scalar %+v (n=%d skip=%d)", got, scalar, n, skip)
		}
		// Index-robustness: a coarser index (longer minimum run) must not
		// change results, only skip less.
		coarse := bitseq.Runs(words, n, 32)
		if got2, _ := tab.RunFrom(tab.StartState(), words, n, skip, coarse); got2 != want {
			t.Fatalf("coarse-index span %+v, block %+v", got2, want)
		}
	})
}
