package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// The output checks. None of them calls into the simulation kernels:
// tables are compared byte for byte with outputs pinned from a known
// good commit, and every miss count is recomputed by replay, a scalar
// predict-then-update loop written here.

// goldenGrid holds the paper-grid tables paperrun wrote at this scale
// (summary.json, the one nondeterministic output, is not pinned).
//
//go:embed testdata/paper-grid
var goldenGrid embed.FS

const goldenGridDir = "testdata/paper-grid"

// checkGrid compares one pass's table directory with the pinned tables:
// one checked operation per pinned file, plus the §7.6 property of the
// Figure 6 and 7 machines.
func checkGrid(t *tally, dir string) {
	want, err := fs.ReadDir(goldenGrid, goldenGridDir)
	if err != nil {
		t.fail(err)
		return
	}
	pinned := map[string]bool{"result.json": true}
	for _, e := range want {
		pinned[e.Name()] = true
		g, _ := goldenGrid.ReadFile(goldenGridDir + "/" + e.Name())
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		t.check(err == nil && bytes.Equal(g, got), "paper-grid table %s differs from the pinned output", e.Name())
	}
	extra, _ := os.ReadDir(dir)
	for _, e := range extra {
		if !pinned[e.Name()] {
			t.check(false, "paper-grid wrote unpinned file %s", e.Name())
		}
	}
	for _, fig := range []string{"figure6.json", "figure7.json"} {
		var doc struct {
			Captures *bool `json:"captures_from_any_state"`
		}
		b, err := os.ReadFile(filepath.Join(dir, fig))
		ok := err == nil && json.Unmarshal(b, &doc) == nil && doc.Captures != nil && *doc.Captures
		t.check(ok, "%s does not report captures_from_any_state: true", fig)
	}
}

// machine is a predictor decoded from its canonical JSON encoding
// ({"start":s,"states":[[output,next0,next1],...]}) without the fsm
// package.
type machine struct {
	Start  int      `json:"start"`
	States [][3]int `json:"states"`
}

func decodeMachine(raw []byte) (*machine, error) {
	var m machine
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	n := len(m.States)
	if n == 0 || m.Start < 0 || m.Start >= n {
		return nil, fmt.Errorf("machine has %d states and start %d", n, m.Start)
	}
	for i, s := range m.States {
		if s[0] != 0 && s[0] != 1 || s[1] < 0 || s[1] >= n || s[2] < 0 || s[2] >= n {
			return nil, fmt.Errorf("state %d is malformed: %v", i, s)
		}
	}
	return &m, nil
}

// replay predicts each outcome from the current state's output, then
// moves on the outcome; the first skip outcomes are not scored.
func replay(m *machine, outcomes []bool, skip int) (total, correct int) {
	s := m.Start
	for i, b := range outcomes {
		st := m.States[s]
		if i >= skip {
			total++
			if (st[0] == 1) == b {
				correct++
			}
		}
		if b {
			s = st[2]
		} else {
			s = st[1]
		}
	}
	return total, correct
}

func missRate(total, correct int) float64 {
	if total == 0 {
		return 0
	}
	return float64(total-correct) / float64(total)
}

// checker holds the inputs the search checks replay against.
type checker struct {
	o      options
	traces map[string][]bool
}

func newChecker(o options) *checker { return &checker{o: o} }

// search checks one pass's champions: each BestMissRate must equal the
// replay of its machine over the same trace and warmup, and every pass
// of one seed must return the same champions. Adaptive and exact
// champions may differ from each other and are not compared.
func (c *checker) search(t *tally, got, first []champion) []champion {
	if c.traces == nil {
		c.traces = map[string][]bool{}
		trs, err := searchTraces(c.o.seed)
		if err != nil {
			t.fail(err)
			return first
		}
		for _, tr := range trs {
			c.traces[tr.name] = tr.bits
		}
	}
	warmup := searchOptions(c.o.seed).Warmup
	for _, ch := range got {
		m, err := decodeMachine(ch.Machine)
		if err != nil {
			t.fail(fmt.Errorf("search %s/%s champion: %v", ch.Trace, ch.Mode, err))
			continue
		}
		want := missRate(replay(m, c.traces[ch.Trace], warmup))
		t.check(want == ch.MissRate, "search %s/%s: BestMissRate %v, replay gives %v", ch.Trace, ch.Mode, ch.MissRate, want)
	}
	if first == nil {
		return got
	}
	t.check(sameChampions(first, got), "search champions differ between passes of seed %d", c.o.seed)
	return first
}

func sameChampions(a, b []champion) bool {
	key := func(cs []champion) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = fmt.Sprintf("%s/%s/%s/%v", c.Trace, c.Mode, c.Machine, c.MissRate)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
