package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/gasearch"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// A worker is one fresh process running one cold pass of a workload's
// fixed work, with no disk tier: the process-global caches (fsm block
// cache, tracestore.Shared, fidelity memos) start empty every pass. It
// prints "ready" on stdout once its inputs exist, then runs the pass
// and writes a workerResult to <out>/result.json.

// workerResult is what one pass reports back to the orchestrator.
type workerResult struct {
	WallS  float64   `json:"wall_s"`  // the pass's fixed work, raw
	CPUS   float64   `json:"cpu_s"`   // CPU time of the pass
	StealS float64   `json:"steal_s"` // VM steal during the pass
	OpsMS  []float64 `json:"ops_ms"`  // each operation's latency
	// Counts holds per-layer counters gathered in the pass.
	Counts map[string]float64 `json:"counts"`
	Spans  []span             `json:"spans,omitempty"`
	// Champions are the search workload's answers.
	Champions []champion `json:"champions,omitempty"`
}

// addMachineEvents tallies machine-events requested of the simulation
// kernels: the denominator of fsm.span_skip_ratio.
func (w *workerResult) addMachineEvents(machines, events int) {
	w.Counts["fsm.machine_events"] += float64(machines) * float64(events)
}

// champion is one search's result, as the output check needs it.
type champion struct {
	Trace    string          `json:"trace"`
	Mode     string          `json:"mode"`
	Machine  json.RawMessage `json:"machine"`
	MissRate float64         `json:"miss_rate"`
}

func runWorker(name, out string, seed int64, traced, setupOnly bool) error {
	var pass func(*workerResult, *tracer) error
	switch name {
	case "paper-grid":
		pass = func(w *workerResult, tr *tracer) error { return gridPass(out, tr, w) }
	case "search":
		in, err := newSearchInputs(seed)
		if err != nil {
			return err
		}
		pass = in.pass
	default:
		return fmt.Errorf("unknown worker %q", name)
	}
	fmt.Println("ready")
	if setupOnly {
		return nil
	}
	w := &workerResult{Counts: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	iv := startInterval()
	if err := pass(w, tr); err != nil {
		return err
	}
	w.WallS, w.CPUS, w.StealS = iv.end()
	if traced {
		w.Spans = tr.snapshot()
	}
	ts := tracestore.Shared.Stats()
	bs := fsm.BlockStats()
	w.Counts["tracestore.misses"] = float64(ts.Misses)
	w.Counts["tracestore.bytes"] = float64(ts.Bytes)
	w.Counts["fsm.block_hits"] = float64(bs.Hits)
	w.Counts["fsm.block_misses"] = float64(bs.Misses)
	w.Counts["fsm.span_skipped_events"] = float64(fsm.SpanStats().SkippedEvents)
	b, err := json.Marshal(w)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "result.json"), b, 0o644)
}

// The search workload runs gasearch.Search in exact and adaptive mode
// over two traces: a vortex workload trace, which has no byte-level runs
// and so takes the block/fleet kernel path, and a run-structured
// trace.GenBiased trace drawn from the seed, which takes the span-kernel
// path. No logic minimization happens here.
const (
	searchEvents = 1 << 20
	searchBias   = 0.95
	searchRunlen = 256
)

func searchOptions(seed int64) gasearch.Options {
	return gasearch.Options{States: 8, Population: 128, Generations: 25, Seed: seed, Warmup: 64}
}

type searchInputs struct {
	seed   int64
	traces []namedTrace
}

type namedTrace struct {
	name string
	bits []bool
}

// searchTraces generates the search workload's inputs from the seed.
func searchTraces(seed int64) ([]namedTrace, error) {
	vortex, err := workload.ByName("vortex")
	if err != nil {
		return nil, err
	}
	biased, err := trace.GenBiased(searchEvents, searchBias, searchRunlen, seed)
	if err != nil {
		return nil, err
	}
	return []namedTrace{
		{"vortex", outcomes(vortex.Generate(workload.Train, searchEvents))},
		{"biased", outcomes(biased)},
	}, nil
}

func outcomes(evs []trace.BranchEvent) []bool {
	out := make([]bool, len(evs))
	for i, e := range evs {
		out[i] = e.Taken
	}
	return out
}

func newSearchInputs(seed int64) (*searchInputs, error) {
	tr, err := searchTraces(seed)
	return &searchInputs{seed: seed, traces: tr}, err
}

func (in *searchInputs) pass(w *workerResult, tr *tracer) error {
	opt := searchOptions(in.seed)
	for _, t := range in.traces {
		for _, mode := range []string{"exact", "adaptive"} {
			o := opt
			o.Adaptive = mode == "adaptive"
			fidelity.ResetMemo()
			s := tr.op("search." + t.name)
			t0 := time.Now()
			res, err := callErr(s, "gasearch."+mode, func() (*gasearch.Result, error) { return gasearch.Search(t.bits, o) })
			elapsed := time.Since(t0)
			s.end()
			if err != nil {
				return err
			}
			w.OpsMS = append(w.OpsMS, ms(elapsed))
			m, err := json.Marshal(res.Best)
			if err != nil {
				return err
			}
			w.Champions = append(w.Champions, champion{Trace: t.name, Mode: mode, Machine: m, MissRate: res.BestMissRate})
			w.Counts["gasearch.genome_evals"] += float64(res.Evaluations)
			w.addMachineEvents(res.Evaluations, len(t.bits))
			if o.Adaptive {
				r := res.Racing
				w.Counts["fidelity.rung_evals"] += float64(r.RungEvals)
				w.Counts["fidelity.pruned"] += float64(r.Pruned)
				w.Counts["fidelity.escalated"] += float64(r.Escalated)
				w.Counts["fidelity.memo_hits"] += float64(r.MemoHits)
				w.Counts["fidelity.deduped"] += float64(r.Deduped)
				w.Counts["fidelity.raced"] += float64(res.Evaluations - r.MemoHits - r.Deduped)
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
