package main

import (
	"encoding/json"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"fsmpredict/internal/fsm"
	"fsmpredict/internal/gasearch"
)

// Each workload's output check must pass on a right answer and fail
// once one output is corrupted.

func pinnedGrid(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := fs.ReadDir(goldenGrid, goldenGridDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, _ := goldenGrid.ReadFile(goldenGridDir + "/" + e.Name())
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestGridCheckCatchesCorruptTable(t *testing.T) {
	dir := pinnedGrid(t)
	var ok tally
	checkGrid(&ok, dir)
	if ok.failed != 0 || ok.attempted == 0 {
		t.Fatalf("pinned tables: %d of %d checks failed", ok.failed, ok.attempted)
	}

	name := filepath.Join(dir, "figure5_gsm.csv")
	b, _ := os.ReadFile(name)
	b[len(b)/2] ^= 1
	os.WriteFile(name, b, 0o644)
	var bad tally
	checkGrid(&bad, dir)
	if bad.failed != 1 {
		t.Fatalf("one flipped table byte: %d failed checks, want 1", bad.failed)
	}
}

func TestGridCheckCatchesLostCaptureProperty(t *testing.T) {
	dir := pinnedGrid(t)
	name := filepath.Join(dir, "figure6.json")
	var doc map[string]any
	b, _ := os.ReadFile(name)
	json.Unmarshal(b, &doc)
	doc["captures_from_any_state"] = false
	b, _ = json.Marshal(doc)
	os.WriteFile(name, b, 0o644)
	var bad tally
	checkGrid(&bad, dir)
	// The table no longer matches its pin, and the property fails.
	if bad.failed != 2 {
		t.Fatalf("figure6 without the capture property: %d failed checks, want 2", bad.failed)
	}
}

func randomBits(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(4) != 0
	}
	return out
}

func TestSearchCheckCatchesPerturbedMissRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := randomBits(rng, 4096)
	opt := searchOptions(5)
	opt.Population, opt.Generations = 16, 4
	res, err := gasearch.Search(bits, opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(res.Best)
	champ := champion{Trace: "t", Mode: "exact", Machine: raw, MissRate: res.BestMissRate}
	c := &checker{o: options{seed: 5}, traces: map[string][]bool{"t": bits}}

	var ok tally
	first := c.search(&ok, []champion{champ}, nil)
	c.search(&ok, []champion{champ}, first)
	if ok.failed != 0 {
		t.Fatalf("the program's own champion failed %d checks", ok.failed)
	}

	total := len(bits) - opt.Warmup
	wrong := champ
	wrong.MissRate += 1 / float64(total) // one miss more
	var bad tally
	c.search(&bad, []champion{wrong}, first)
	// The replay disagrees, and the champion differs from the first pass.
	if bad.failed != 2 {
		t.Fatalf("perturbed miss rate: %d failed checks, want 2", bad.failed)
	}
}

func TestReplayMatchesProgramSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		m := randomMachine(rng, 1+rng.Intn(9))
		bits := randomBits(rng, rng.Intn(3000))
		skip := rng.Intn(40)
		raw, _ := json.Marshal(m)
		var pm fsm.Machine
		if err := json.Unmarshal(raw, &pm); err != nil {
			t.Fatal(err)
		}
		want := pm.SimulateScalar(bits, skip)
		total, correct := replay(m, bits, skip)
		if total != want.Total || correct != want.Correct {
			t.Fatalf("trial %d: replay %d/%d, program %d/%d", trial, correct, total, want.Correct, want.Total)
		}
	}
}

func served(kind string, body string) *request {
	return &request{kind: kind, status: http.StatusOK, resp: []byte(body)}
}

func TestServeCheckCatchesWrongAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMachine(rng, 4)
	bits := randomBits(rng, 1000)
	c := newSimCase(m, map[string]any{"trace": bitString(bits)}, bits, 7)
	total, correct := replay(m, bits, 7)
	simResp := func(correct int) string {
		b, _ := json.Marshal(map[string]int{"total": total, "correct": correct})
		return string(b)
	}
	line := func(id string, correct int) string {
		b, _ := json.Marshal(map[string]any{"id": id, "result": map[string]int{"total": total, "correct": correct}})
		return string(b)
	}
	mraw, _ := json.Marshal(m)
	design := func(machine []byte) string {
		b, _ := json.Marshal(map[string]any{"key": "k", "machine": json.RawMessage(machine), "states": 4})
		return string(b)
	}
	other := randomMachine(rng, 4)
	other.States[0][0] ^= 1
	oraw, _ := json.Marshal(other)
	searchBits := randomBits(rng, 500)
	sTotal, sCorrect := replay(m, searchBits, 3)
	search := func(rate float64) string {
		b, _ := json.Marshal(map[string]any{"machine": json.RawMessage(mraw), "miss_rate": rate})
		return string(b)
	}

	build := func(corrupt string) []*request {
		sim := served("simulate", simResp(correct))
		batch := served("batch", line("0", correct)+"\n"+line("1", correct)+"\n")
		d1 := served("design", design(mraw))
		d2 := served("design", design(mraw))
		srch := served("search", search(missRate(sTotal, sCorrect)))
		switch corrupt {
		case "simulate":
			sim.resp = []byte(simResp(correct - 1))
		case "batch":
			batch.resp = []byte(line("0", correct) + "\n" + line("1", correct+1) + "\n")
		case "design":
			d2.resp = []byte(design(oraw))
		case "search":
			srch.resp = []byte(search(missRate(sTotal, sCorrect-1)))
		}
		sim.sims = []*simCase{c}
		batch.sims = []*simCase{c, c}
		d1.designKey, d2.designKey = "same", "same"
		srch.search = &searchCase{bits: searchBits, warmup: 3}
		return []*request{sim, batch, d1, d2, srch}
	}

	var ok tally
	checkServe(&ok, build(""))
	if ok.failed != 0 {
		t.Fatalf("right answers: %d failed checks", ok.failed)
	}
	for _, corrupt := range []string{"simulate", "batch", "design", "search"} {
		var bad tally
		checkServe(&bad, build(corrupt))
		if bad.failed != 1 {
			t.Errorf("corrupt %s answer: %d failed checks, want 1", corrupt, bad.failed)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "experiments.figure5", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "bpred.sweep", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "bpred.sweep", Start: 30, End: 70}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "vhdl.synth", Start: 80, End: 90},
	}
	self := selfTimes(spans)
	if got := self["experiments"] * 1e9; got < 29.5 || got > 30.5 {
		t.Errorf("experiments self time %v ns, want 30", got)
	}
	if got := self["bpred"] * 1e9; got < 79.5 || got > 80.5 {
		t.Errorf("bpred self time %v ns, want 80", got)
	}
}

func TestNetOfSteal(t *testing.T) {
	if got := netOfSteal(3, 2, 0); got != 3 {
		t.Errorf("no steal: %v, want the raw wall 3", got)
	}
	// A quarter of the runnable time was stolen: the wall shrinks by it.
	if got := netOfSteal(4, 3, 1); got != 3 {
		t.Errorf("quarter stolen: %v, want 3", got)
	}
}
