package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fsmpredict/internal/bpred"
	"fsmpredict/internal/confidence"
	"fsmpredict/internal/core"
	"fsmpredict/internal/experiments"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/par"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vhdl"
	"fsmpredict/internal/workload"
)

// The paper-grid workload is paperrun's default grid: Figures 2, 4, 5,
// 6 and 7 over every program at experiments.DefaultConfig() scale, with
// Figure 4 on the paper's 10% synthesis sample. Its inputs are the
// fixed synthetic suite, so its tables do not depend on the seed.
const figure4SampleFrac = 0.1

var (
	figure2Programs = []string{"gcc", "go", "groff", "li", "perl"}
	figure5Programs = []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"}
)

// gridPass runs one pass of the paper grid and writes the same tables
// paperrun writes. With tr == nil it calls the experiments entry points
// directly (the researcher's path); otherwise it composes each figure
// from the public layer calls that make it up, recording a span around
// each. Both paths must produce byte-identical tables.
func gridPass(out string, tr *tracer, w *workerResult) error {
	cfg := experiments.DefaultConfig()
	tables := map[string]any{}
	timeOp := func(name string, fn func(s scope) error) error {
		s := tr.op(name)
		t0 := time.Now()
		err := fn(s)
		w.OpsMS = append(w.OpsMS, ms(time.Since(t0)))
		s.end()
		return err
	}

	fig2 := map[string]any{}
	for _, prog := range figure2Programs {
		var r *experiments.Figure2Result
		err := timeOp("experiments.figure2", func(s scope) (err error) {
			if tr == nil {
				r, err = experiments.Figure2(prog, cfg)
			} else {
				r, err = composeFigure2(s, prog, cfg, w)
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := renderFigure2(out, r, fig2); err != nil {
			return err
		}
	}
	tables["figure2"] = fig2

	var f4 *experiments.Figure4Result
	err := timeOp("experiments.figure4", func(s scope) (err error) {
		if tr == nil {
			f4, err = experiments.Figure4(cfg, figure4SampleFrac)
		} else {
			f4, err = composeFigure4(s, cfg, w)
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := renderFigure4(out, f4, tables); err != nil {
		return err
	}

	areaModel := f4.AreaModel()
	fig5 := map[string]any{}
	for _, prog := range figure5Programs {
		var r *experiments.Figure5Result
		err := timeOp("experiments.figure5", func(s scope) (err error) {
			if tr == nil {
				r, err = experiments.Figure5(prog, cfg, areaModel)
			} else {
				r, err = composeFigure5(s, prog, cfg, areaModel, w)
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := renderFigure5(out, r, fig5); err != nil {
			return err
		}
	}
	tables["figure5"] = fig5

	for _, fig := range []string{"figure6", "figure7"} {
		var e *experiments.ExampleMachine
		err := timeOp("experiments."+fig, func(s scope) (err error) {
			switch {
			case tr != nil:
				e, err = composeExample(s, fig, cfg)
			case fig == "figure6":
				e, err = experiments.Figure6(cfg)
			default:
				e, err = experiments.Figure7(cfg)
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := renderExample(out, fig, e, tables); err != nil {
			return err
		}
	}
	return writeJSONFile(out, "tables.json", tables)
}

// composeFigure2 is experiments.Figure2 built from its public calls.
func composeFigure2(s scope, program string, cfg experiments.Config, w *workerResult) (*experiments.Figure2Result, error) {
	target, err := workload.LoadByName(program)
	if err != nil {
		return nil, err
	}
	eval := call(s, "tracestore.load", func() *tracestore.ConfStreams {
		return tracestore.Shared.ConfStreams(target, workload.Test, cfg.LoadEvents, cfg.TableLog2)
	})
	res := &experiments.Figure2Result{
		Program: program,
		SUD:     call(s, "confidence.replay", func() []confidence.SUDPoint { return confidence.SUDSweepStreams(eval) }),
		Curves:  make(map[int][]confidence.FSMPoint, len(cfg.Histories)),
	}
	w.addMachineEvents(len(res.SUD), eval.Loads())
	maxH := 0
	for _, h := range cfg.Histories {
		maxH = max(maxH, h)
	}
	suite := map[string]*markov.Model{}
	for _, p := range workload.LoadSuite() {
		streams := call(s, "tracestore.load", func() *tracestore.ConfStreams {
			return tracestore.Shared.ConfStreams(p, workload.Train, cfg.LoadEvents, cfg.TableLog2)
		})
		suite[p.Name] = call(s, "confidence.profile", func() *markov.Model { return confidence.PerEntryModel(streams, maxH) })
	}
	crossed, err := callErr(s, "core.crosstrain", func() (map[string]*markov.Model, error) { return core.CrossTrain(suite) })
	if err != nil {
		return nil, err
	}
	wide, ok := crossed[program]
	if !ok {
		return nil, fmt.Errorf("%s is not in the load suite", program)
	}
	thresholds := confidence.DefaultThresholds()
	curves, err := par.MapSlice(context.Background(), cfg.Workers, cfg.Histories,
		func(_ int, h int) ([]confidence.FSMPoint, error) {
			model, err := callErr(s, "markov.fold", func() (*markov.Model, error) { return wide.FoldTo(h) })
			if err != nil {
				return nil, err
			}
			points := make([]confidence.FSMPoint, len(thresholds))
			machines := make([]*fsm.Machine, len(thresholds))
			for i, thr := range thresholds {
				d, err := callErr(s, "core.design", func() (*core.Design, error) {
					return core.FromModel(model, core.Options{
						BiasThreshold: thr,
						Name:          fmt.Sprintf("conf_h%d_t%02.0f", model.Order(), thr*100),
					})
				})
				if err != nil {
					return nil, err
				}
				points[i] = confidence.FSMPoint{Threshold: thr, Machine: d.Machine}
				machines[i] = d.Machine
			}
			results := call(s, "confidence.replay", func() []confidence.Result {
				return confidence.EvaluateStreamsFleet(eval, machines)
			})
			for i := range points {
				points[i].Result = results[i]
			}
			return points, nil
		})
	if err != nil {
		return nil, err
	}
	w.addMachineEvents(len(cfg.Histories)*len(thresholds), eval.Loads())
	for i, h := range cfg.Histories {
		res.Curves[h] = curves[i]
	}
	return res, nil
}

// composeFigure4 is experiments.Figure4 built from its public calls.
func composeFigure4(s scope, cfg experiments.Config, w *workerResult) (*experiments.Figure4Result, error) {
	type sampled struct {
		entry  *bpred.CustomEntry
		packed *tracestore.Packed
	}
	var all []sampled
	for _, prog := range workload.BranchSuite() {
		packed := call(s, "tracestore.load", func() *tracestore.Packed {
			return tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
		})
		entries, err := callErr(s, "bpred.train", func() ([]*bpred.CustomEntry, error) {
			return bpred.TrainCustomPacked(packed, trainOptions(cfg))
		})
		if err != nil {
			return nil, err
		}
		w.Counts["bpred.machines"] += float64(len(entries))
		for _, e := range entries {
			all = append(all, sampled{e, packed})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("figure4 produced no machines")
	}
	rng := rand.New(rand.NewSource(97))
	var picked []sampled
	for _, e := range all {
		if rng.Float64() < figure4SampleFrac {
			picked = append(picked, e)
		}
	}
	if len(picked) < 2 {
		picked = all
	}
	points, err := par.MapSlice(context.Background(), cfg.Workers, picked,
		func(_ int, e sampled) (stats.Point, error) {
			area, err := callErr(s, "vhdl.synth", func() (float64, error) { return vhdl.EstimateArea(e.entry.Machine) })
			return stats.Point{X: float64(e.entry.Machine.NumStates()), Y: area}, err
		})
	if err != nil {
		return nil, err
	}
	w.Counts["vhdl.machines"] += float64(len(picked))

	// The update-all miss rates of the sample, one fleet pass per program.
	res := &experiments.Figure4Result{Points: points, MissRates: make([]float64, len(picked))}
	groups := map[*tracestore.Packed][]int{}
	var order []*tracestore.Packed
	for i, e := range picked {
		if _, ok := groups[e.packed]; !ok {
			order = append(order, e.packed)
		}
		groups[e.packed] = append(groups[e.packed], i)
	}
	for _, p := range order {
		idxs := groups[p]
		machines := make([]*fsm.Machine, len(idxs))
		pos := make([][]int32, len(idxs))
		for k, i := range idxs {
			machines[k] = picked[i].entry.Machine
			if id, ok := p.IDOf(picked[i].entry.Tag); ok {
				pos[k] = p.SubOf(id).Pos
			}
		}
		fl, err := fsm.NewFleet(machines)
		if err != nil {
			return nil, err
		}
		misses := call(s, "fsm.sampled", func() []int { return fl.RunSampled(p.Outcomes().Words(), p.Len(), pos) })
		w.addMachineEvents(len(machines), p.Len())
		for k, i := range idxs {
			if len(pos[k]) > 0 {
				res.MissRates[i] = float64(misses[k]) / float64(len(pos[k]))
			}
		}
	}
	if err := fitTrimmed(res); err != nil {
		return nil, err
	}
	return res, nil
}

// fitTrimmed mirrors Figure 4's trimmed fit: a Theil–Sen line locates
// the trend, points far below it are set aside, and least squares on
// the rest gives the reported line.
func fitTrimmed(r *experiments.Figure4Result) error {
	base, err := stats.TheilSen(r.Points)
	if err != nil {
		return err
	}
	var kept []stats.Point
	for _, p := range r.Points {
		if pred := base.At(p.X); pred > 40 && p.Y < 0.5*pred {
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) < 2 {
		kept = r.Points
	}
	r.Kept = kept
	r.Fit, err = stats.LinearFit(kept)
	return err
}

// composeFigure5 is experiments.Figure5 built from its public calls.
func composeFigure5(s scope, program string, cfg experiments.Config, fsmArea func(int) float64, w *workerResult) (*experiments.Figure5Result, error) {
	prog, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	train := call(s, "tracestore.load", func() *tracestore.Packed {
		return tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
	})
	test := call(s, "tracestore.load", func() *tracestore.Packed {
		return tracestore.Shared.Branches(prog, workload.Test, cfg.BranchEvents)
	})
	res := &experiments.Figure5Result{Program: program}
	res.Gshare.Name, res.LGC.Name = "gshare", "lgc"
	res.CustomSame.Name, res.CustomDiff.Name = "custom-same", "custom-diff"

	x := bpred.NewXScale()
	preds := []bpred.Predictor{x}
	gshares := make([]*bpred.Gshare, len(experiments.GshareBits))
	for i, bits := range experiments.GshareBits {
		gshares[i] = bpred.NewGshare(bits)
		preds = append(preds, gshares[i])
	}
	lgcs := make([]*bpred.LGC, len(experiments.LGCBits))
	for i, bits := range experiments.LGCBits {
		lgcs[i] = bpred.NewLGC(bits)
		preds = append(preds, lgcs[i])
	}
	// Table predictors in contiguous chunks, one RunAll pass per worker.
	nw := par.Workers(cfg.Workers, len(preds))
	tableResults := make([]bpred.Result, len(preds))
	if _, err := par.Map(context.Background(), nw, nw, func(c int) (struct{}, error) {
		lo, hi := c*len(preds)/nw, (c+1)*len(preds)/nw
		if lo < hi {
			copy(tableResults[lo:hi], call(s, "bpred.run", func() []bpred.Result { return bpred.RunAll(preds[lo:hi], test) }))
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	res.XScale = stats.Point{X: x.Area(), Y: tableResults[0].MissRate()}
	for i, g := range gshares {
		res.Gshare.Points = append(res.Gshare.Points, stats.Point{X: g.Area(), Y: tableResults[1+i].MissRate()})
	}
	for i, l := range lgcs {
		res.LGC.Points = append(res.LGC.Points, stats.Point{X: l.Area(), Y: tableResults[1+len(gshares)+i].MissRate()})
	}

	entries, err := callErr(s, "bpred.train", func() ([]*bpred.CustomEntry, error) {
		return bpred.TrainCustomPacked(train, trainOptions(cfg))
	})
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("figure5 %s: no custom entries", program)
	}
	w.Counts["bpred.machines"] += float64(len(entries))
	res.Entries = entries
	sweeps, err := par.MapSlice(context.Background(), 2, []*tracestore.Packed{train, test},
		func(_ int, tr *tracestore.Packed) ([]bpred.Result, error) {
			return call(s, "bpred.sweep", func() []bpred.Result {
				return bpred.RunCustomPrefixesParallel(entries, tr, cfg.Workers)
			}), nil
		})
	if err != nil {
		return nil, err
	}
	w.addMachineEvents(len(entries), train.Len()+test.Len())
	for i := range entries {
		c := bpred.NewCustom(entries[:i+1])
		c.FSMArea = fsmArea
		res.CustomSame.Points = append(res.CustomSame.Points, stats.Point{X: c.Area(), Y: sweeps[0][i].MissRate()})
		res.CustomDiff.Points = append(res.CustomDiff.Points, stats.Point{X: c.Area(), Y: sweeps[1][i].MissRate()})
	}
	return res, nil
}

// composeExample is experiments.Figure6/Figure7 built from its public
// calls: one branch's substream profiled and designed.
func composeExample(s scope, fig string, cfg experiments.Config) (*experiments.ExampleMachine, error) {
	program, pc, order := "ijpeg", uint64(0x12005000+2*4), 2
	if fig == "figure7" {
		program, pc, order = "gs", 0x12002000+1*4, 4
	}
	prog, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	packed := call(s, "tracestore.load", func() *tracestore.Packed {
		return tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
	})
	model := markov.New(order)
	if id, ok := packed.IDOf(pc); ok {
		model = call(s, "tracestore.profile", func() []*markov.Model { return packed.GlobalModels([]int32{id}, order) })[0]
	}
	d, err := callErr(s, "core.design", func() (*core.Design, error) {
		return core.FromModel(model, core.Options{Name: fmt.Sprintf("%s_%#x", program, pc)})
	})
	if err != nil {
		return nil, err
	}
	return &experiments.ExampleMachine{Program: program, PC: pc, Order: order, Cover: d.Cover, Machine: d.Machine}, nil
}

func trainOptions(cfg experiments.Config) bpred.TrainOptions {
	return bpred.TrainOptions{MaxEntries: cfg.MaxCustom, Order: cfg.Order, MinExecutions: 64, Workers: cfg.Workers}
}

// The render functions write paperrun's table formats.

func renderFigure2(out string, r *experiments.Figure2Result, summary map[string]any) error {
	series := append(r.Series(), stats.Series{Name: "frontier", Points: r.SUDFrontier()})
	if err := writeFile(out, "figure2_"+r.Program+".csv", stats.CSV(series)); err != nil {
		return err
	}
	best := map[string]float64{}
	for _, s := range series {
		var top float64
		for _, p := range s.Points {
			top = max(top, p.Y)
		}
		best[s.Name] = top
	}
	summary[r.Program] = map[string]any{"max_coverage": best}
	return nil
}

func renderFigure4(out string, r *experiments.Figure4Result, tables map[string]any) error {
	fit := stats.Series{Name: "fit"}
	if len(r.Points) > 0 {
		lo, hi := r.Points[0].X, r.Points[0].X
		for _, p := range r.Points {
			lo, hi = min(lo, p.X), max(hi, p.X)
		}
		fit.Points = []stats.Point{{X: lo, Y: r.Fit.At(lo)}, {X: hi, Y: r.Fit.At(hi)}}
	}
	series := []stats.Series{{Name: "sample", Points: r.Points}, {Name: "kept", Points: r.Kept}, fit}
	if err := writeFile(out, "figure4.csv", stats.CSV(series)); err != nil {
		return err
	}
	tables["figure4"] = map[string]any{
		"slope":     r.Fit.Slope,
		"intercept": r.Fit.Intercept,
		"r2":        r.Fit.R2,
		"samples":   len(r.Points),
		"kept":      len(r.Kept),
	}
	return nil
}

func renderFigure5(out string, r *experiments.Figure5Result, summary map[string]any) error {
	series := r.Series()
	if err := writeFile(out, "figure5_"+r.Program+".csv", stats.CSV(series)); err != nil {
		return err
	}
	minMiss := map[string]float64{}
	for _, s := range series {
		minMiss[s.Name] = experiments.MinMiss(s)
	}
	atBudget := map[string]any{}
	for _, s := range series[1:] {
		if m, ok := experiments.BestAtOrBelow(s, r.XScale.X); ok {
			atBudget[s.Name] = m
		}
	}
	summary[r.Program] = map[string]any{
		"xscale_area":    r.XScale.X,
		"xscale_miss":    r.XScale.Y,
		"min_miss":       minMiss,
		"best_at_budget": atBudget,
	}
	return nil
}

func renderExample(out, fig string, e *experiments.ExampleMachine, tables map[string]any) error {
	cover := make([]string, len(e.Cover))
	for i, c := range e.Cover {
		cover[i] = c.String()
	}
	state, hist, ok := e.CapturesFromAnyState()
	doc := map[string]any{
		"program":                 e.Program,
		"pc":                      fmt.Sprintf("%#x", e.PC),
		"order":                   e.Order,
		"cover":                   cover,
		"states":                  e.Machine.NumStates(),
		"captures_from_any_state": ok,
		"machine":                 e.Machine,
	}
	if !ok {
		doc["violation"] = map[string]any{"state": state, "history": hist}
	}
	if err := writeJSONFile(out, fig+".json", doc); err != nil {
		return err
	}
	tables[fig] = map[string]any{
		"states":                  e.Machine.NumStates(),
		"cover":                   cover,
		"captures_from_any_state": ok,
	}
	return nil
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func writeJSONFile(dir, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(dir, name, string(b)+"\n")
}
