package counters

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fsm"
)

func TestTwoBitBehaviour(t *testing.T) {
	c := NewTwoBit()
	if c.Predict() {
		t.Error("initial 2-bit counter should predict not-taken")
	}
	c.Update(true)
	if c.Predict() {
		t.Error("value 1 should still predict not-taken")
	}
	c.Update(true)
	if !c.Predict() {
		t.Error("value 2 should predict taken")
	}
	c.Update(true)
	c.Update(true) // saturate at 3
	if c.Value() != 3 {
		t.Errorf("value = %d, want 3", c.Value())
	}
	c.Update(false)
	if !c.Predict() {
		t.Error("one not-taken from saturation should stay predicting taken")
	}
	c.Update(false)
	c.Update(false)
	c.Update(false)
	if c.Value() != 0 || c.Predict() {
		t.Error("counter should floor at 0 and predict not-taken")
	}
}

func TestResettingCounter(t *testing.T) {
	c := NewResetting(5, 3)
	for i := 0; i < 5; i++ {
		c.Update(true)
	}
	if c.Value() != 5 || !c.Predict() {
		t.Fatalf("value = %d, predict = %v", c.Value(), c.Predict())
	}
	c.Update(false)
	if c.Value() != 0 || c.Predict() {
		t.Error("a miss should reset to zero")
	}
}

func TestSetValueAndReset(t *testing.T) {
	c := NewTwoBit()
	c.SetValue(2)
	if c.Value() != 2 || !c.Predict() {
		t.Error("SetValue(2) should be weakly taken")
	}
	c.Update(true)
	c.Reset()
	if c.Value() != 2 {
		t.Error("Reset should return to the initialized value")
	}
	c.SetValue(99)
	if c.Value() != 3 {
		t.Error("SetValue should clamp to Max")
	}
	c.SetValue(-4)
	if c.Value() != 0 {
		t.Error("SetValue should clamp to 0")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []SUDConfig{
		{Max: 0, Inc: 1, Dec: 1, Threshold: 1},
		{Max: 3, Inc: 0, Dec: 1, Threshold: 1},
		{Max: 3, Inc: 1, Dec: 0, Threshold: 1},
		{Max: 3, Inc: 1, Dec: -2, Threshold: 1},
		{Max: 3, Inc: 1, Dec: 1, Threshold: 0},
		{Max: 3, Inc: 1, Dec: 1, Threshold: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%v): expected error", i, c)
		}
	}
	if err := (SUDConfig{Max: 3, Inc: 1, Dec: FullReset, Threshold: 2}).Validate(); err != nil {
		t.Errorf("full-reset config should validate: %v", err)
	}
}

func TestConfigString(t *testing.T) {
	c := SUDConfig{Max: 40, Inc: 1, Dec: FullReset, Threshold: 36}
	if got := c.String(); got != "sud(max=40,inc=1,dec=full,thr=36)" {
		t.Errorf("String = %q", got)
	}
	if c.States() != 41 {
		t.Errorf("States = %d, want 41", c.States())
	}
}

func TestNewSUDPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSUD(SUDConfig{})
}

// TestMachineMatchesCounter cross-checks the explicit Moore machine
// against the counter implementation on random outcome streams.
func TestMachineMatchesCounter(t *testing.T) {
	configs := []SUDConfig{
		{Max: 3, Inc: 1, Dec: 1, Threshold: 2},
		{Max: 5, Inc: 1, Dec: 2, Threshold: 4},
		{Max: 10, Inc: 2, Dec: FullReset, Threshold: 9},
		{Max: 40, Inc: 1, Dec: 10, Threshold: 20},
	}
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range configs {
		ctr := NewSUD(cfg)
		r := cfg.Machine().NewRunner()
		for i := 0; i < 2000; i++ {
			if ctr.Predict() != r.Predict() {
				t.Fatalf("%v: step %d: counter %v, machine %v", cfg, i, ctr.Predict(), r.Predict())
			}
			b := rng.Intn(2) == 1
			ctr.Update(b)
			r.Update(b)
		}
	}
}

// TestMachineBlockTableMatchesCounter closes the loop from the counter
// abstraction to the byte-blocked superstep kernel: a full blocked
// replay of a packed stream must flag exactly the events the stepped
// counter is confident on. This is what lets SUDSweepStreams run
// saturating counters through the same kernel as designed FSMs.
func TestMachineBlockTableMatchesCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range PaperSweep()[:10] {
		tab := fsm.BlockTableFor(cfg.Machine())
		if tab == nil {
			t.Fatalf("%v: no block table for counter machine", cfg)
		}
		stream := &bitseq.Bits{}
		ctr := NewSUD(cfg)
		correct := 0
		const n = 4000
		for i := 0; i < n; i++ {
			b := rng.Intn(3) > 0 // biased, like a real correctness stream
			if ctr.Predict() == b {
				correct++
			}
			ctr.Update(b)
			stream.Append(b)
		}
		got, _ := tab.RunFrom(tab.StartState(), stream.Words(), stream.Len(), 0, nil)
		if got.Total != n || got.Correct != correct {
			t.Fatalf("%v: blocked (%d/%d), counter (%d/%d)",
				cfg, got.Correct, got.Total, correct, n)
		}
	}
}

func TestCounterBoundsQuick(t *testing.T) {
	f := func(seed int64, maxRaw, decRaw uint8) bool {
		max := int(maxRaw%40) + 1
		dec := int(decRaw % 12)
		if dec == 0 {
			dec = FullReset
		}
		thr := max/2 + 1
		if thr > max {
			thr = max
		}
		c := NewSUD(SUDConfig{Max: max, Inc: 1, Dec: dec, Threshold: thr})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			c.Update(rng.Intn(2) == 1)
			if c.Value() < 0 || c.Value() > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPaperSweep(t *testing.T) {
	sweep := PaperSweep()
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
	// 4 max values x 5 penalties x 3 thresholds = 60 nominal points,
	// minus duplicates from threshold rounding at small max.
	if len(sweep) > 60 || len(sweep) < 50 {
		t.Errorf("sweep size = %d, want 50..60", len(sweep))
	}
	seen := map[SUDConfig]bool{}
	for _, cfg := range sweep {
		if err := cfg.Validate(); err != nil {
			t.Errorf("invalid sweep config %v: %v", cfg, err)
		}
		if seen[cfg] {
			t.Errorf("duplicate sweep config %v", cfg)
		}
		seen[cfg] = true
	}
	// The paper's largest counter must appear.
	if !seen[SUDConfig{Max: 40, Inc: 1, Dec: FullReset, Threshold: 36}] {
		t.Error("sweep missing max=40 full-reset 90%")
	}
}

func TestStatic(t *testing.T) {
	var p Predictor = Static(true)
	if !p.Predict() {
		t.Error("Static(true) should predict true")
	}
	p.Update(false)
	p.Reset()
	if !p.Predict() {
		t.Error("Static must ignore updates")
	}
}

func TestSUDImplementsPredictor(t *testing.T) {
	var _ Predictor = NewTwoBit()
}
