package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"fsmpredict/internal/fsm"
)

// TestFiguresKernelOnOffIdentical is the figure-level oracle for the
// simulation kernels: every figure result at this small config is
// pinned to the SHA-256 of its JSON rendering, recorded when the block
// and span kernels could still be switched off process-wide and the
// figures were proven identical (reflect.DeepEqual) with every kernel
// on and off. The pin therefore holds the whole flow — trace
// generation, packing, training, replay, statistics — to the scalar
// oracle's output, whichever kernel the inputs now select. The span
// counters must advance, so the pin covers the run-skipping path too.
func TestFiguresKernelOnOffIdentical(t *testing.T) {
	t.Parallel()
	cfg := Config{
		BranchEvents: 20_000,
		LoadEvents:   15_000,
		MaxCustom:    4,
		Order:        5,
		Histories:    []int{2, 4},
		TableLog2:    7,
		Workers:      1,
	}
	area := func(states int) float64 { return 12.5 * float64(states) }

	runs := []struct {
		name string
		pin  string
		do   func() (any, error)
	}{
		{"figure2", "3ae22291266fe247b0c6cef8ce47c8a5dcbeea09d309f3e64710f2bf4bcfc609",
			func() (any, error) { return Figure2("gcc", cfg) }},
		{"figure4", "c12f504d206926daaf25a7ca092e2622b87356a882560014d9fad41aff0d8e5f",
			func() (any, error) { return Figure4(cfg, 1.0) }},
		{"figure5", "47877c97a946477b9bad2b846ffd8be5f6242abad186d2d60e487c7044bb69e8",
			func() (any, error) { return Figure5("gsm", cfg, area) }},
		{"figure6", "8b3d4eb104eaf180da6a83c94218789e0a7c97fbd5a98f784c2e2a5d1f91741d",
			func() (any, error) { return Figure6(cfg) }},
		{"figure7", "7f738867f62d0df80f753affbf9d05f56ff10fbddcc33547aae5c0d362781e3e",
			func() (any, error) { return Figure7(cfg) }},
	}
	skipped := fsm.SpanStats().SkippedEvents
	// Cleanups run after every parallel subtest has finished.
	t.Cleanup(func() {
		if fsm.SpanStats().SkippedEvents == skipped {
			t.Error("no figure skipped a run: the span kernel went unexercised")
		}
	})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res, err := r.do()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != r.pin {
				t.Fatalf("result digest %s, pinned %s:\n%s", got, r.pin, raw)
			}
		})
	}
}
