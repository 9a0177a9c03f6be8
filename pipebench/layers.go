package main

// perLayer lists every per-layer metric with its unit. A traced run of
// any workload reports all of them; a layer the workload does not
// exercise reports 0 (no time spent, nothing counted), and a ratio
// whose denominator is 0 reports 0.
var perLayer = []struct{ name, unit string }{
	// paper-grid: where the researcher's wall_s goes.
	{"experiments.figure2_s", "s"},
	{"experiments.figure4_s", "s"},
	{"experiments.figure5_s", "s"},
	{"experiments.figure67_s", "s"},
	{"tracestore.load_s", "s"},
	{"tracestore.misses", "count"},
	{"tracestore.bytes", "bytes"},
	{"bpred.train_s", "s"},
	{"bpred.machines", "count"},
	{"bpred.sweep_s", "s"},
	{"bpred.run_s", "s"},
	{"vhdl.synth_s", "s"},
	{"vhdl.machines", "count"},
	{"confidence.replay_s", "s"},
	{"confidence.profile_s", "s"},
	{"core.design_s", "s"},
	{"fsm.block_hit_ratio", "ratio"},
	{"fsm.span_skip_ratio", "ratio"},
	// search: the kernels and the fidelity ladder.
	{"gasearch.exact_s", "s"},
	{"gasearch.adaptive_s", "s"},
	{"gasearch.genome_evals", "count"},
	{"fidelity.rung_evals", "count"},
	{"fidelity.pruned", "count"},
	{"fidelity.escalated", "count"},
	{"fidelity.memo_hits", "count"},
	{"fidelity.deduped", "count"},
	{"fidelity.prune_ratio", "ratio"},
	{"fsm.sim_mb_per_s", "MB/s"},
	// serve: /metrics deltas, design stages and the generator.
	{"service.design_hit_ratio", "ratio"},
	{"service.dedup_joined", "count"},
	{"service.shed", "count"},
	{"service.design_ms", "ms"},
	{"service.search_ms", "ms"},
	{"service.design_p50_ms", "ms"},
	{"service.design_p99_ms", "ms"},
	{"service.simulate_p50_ms", "ms"},
	{"service.simulate_p99_ms", "ms"},
	{"service.batch_p50_ms", "ms"},
	{"core.profile_ms", "ms"},
	{"core.fold_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.minimize_ms", "ms"},
	{"core.direct_ms", "ms"},
	{"core.reduce_ms", "ms"},
	{"batch.items_per_pass", "count"},
	{"batch.passes", "count"},
	{"fsm.fleet_mb", "MB"},
	{"harness.late_p99_ms", "ms"},
	{"harness.goodput_rps", "1/s"},
	{"harness.design_samples", "count"},
	{"harness.simulate_samples", "count"},
	// Self time per layer, from the spans, and the cost of tracing.
	{"experiments.self_s", "s"},
	{"tracestore.self_s", "s"},
	{"bpred.self_s", "s"},
	{"vhdl.self_s", "s"},
	{"confidence.self_s", "s"},
	{"core.self_s", "s"},
	{"markov.self_s", "s"},
	{"fsm.self_s", "s"},
	{"gasearch.self_s", "s"},
	{"service.self_s", "s"},
	{"batch.self_s", "s"},
	{"harness.trace_overhead_s", "s"},
	{"harness.raw_wall_s", "s"},
	{"harness.steal_share", "ratio"},
}

// setLayers fills r with every per-layer metric, taking values from vals
// (missing names report 0).
func setLayers(r *result, vals map[string]float64) {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, vals[m.name], m.unit)
		}
	}
}

// passLayers derives one traced pass's per-layer values from its spans
// and counters.
func passLayers(w workerResult) map[string]float64 {
	v := map[string]float64{}
	tot := spanTotals(w.Spans)
	for name, secs := range tot {
		v[name+"_s"] = secs
	}
	v["experiments.figure67_s"] = tot["experiments.figure6"] + tot["experiments.figure7"]
	for layer, s := range selfTimes(w.Spans) {
		v[layer+".self_s"] = s
	}
	c := w.Counts
	for _, name := range []string{
		"tracestore.misses", "tracestore.bytes", "bpred.machines", "vhdl.machines",
		"gasearch.genome_evals", "fidelity.rung_evals", "fidelity.pruned",
		"fidelity.escalated", "fidelity.memo_hits", "fidelity.deduped",
	} {
		v[name] = c[name]
	}
	v["fsm.block_hit_ratio"] = ratio(c["fsm.block_hits"], c["fsm.block_hits"]+c["fsm.block_misses"])
	v["fsm.span_skip_ratio"] = ratio(c["fsm.span_skipped_events"], c["fsm.machine_events"])
	v["fidelity.prune_ratio"] = ratio(c["fidelity.pruned"], c["fidelity.raced"])
	v["fsm.sim_mb_per_s"] = ratio(c["fsm.machine_events"]/8/1e6, tot["gasearch.exact"]+tot["gasearch.adaptive"])
	return v
}

// layerMetrics sets the per-layer metrics of a pass-based workload to
// their medians over the traced passes.
func layerMetrics(r *result, traced []*pass) {
	per := map[string][]float64{}
	for _, p := range traced {
		for name, x := range passLayers(p.res) {
			per[name] = append(per[name], x)
		}
	}
	vals := map[string]float64{}
	for name, xs := range per {
		vals[name] = median(xs)
	}
	setLayers(r, vals)
}
