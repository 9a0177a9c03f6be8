package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fsmpredict/internal/trace"
	"fsmpredict/internal/workload"
)

// The serve workload: a child fsmserved on loopback, driven by this
// process over at most two connections on an open-loop schedule below
// saturation. Every request is timed from when it was due.
const (
	serveEvents     = 20000                  // events per stored workload trace
	designRate      = 10.0                   // unary /v1/design per second
	repeatShare     = 0.3                    // design requests that repeat an earlier key
	simulateRate    = 20.0                   // unary /v1/simulate per second
	batchEvery      = time.Second            // one NDJSON /v1/batch/simulate per interval
	batchLines      = 8                      // simulate lines per batch
	searchEvery     = 5 * time.Second        // one /v1/search per interval
	latencyLimit    = 250 * time.Millisecond // goodput counts unary answers within this
	requestTimeout  = 20 * time.Second
	daemonSpawns    = 21 // daemon set-ups per run; the last one is measured
	biasedTraces    = 8
	biasedLen       = 8192
	searchTraceLen  = 1 << 17
	randomMachines  = 16
	repeatMinBehind = 10 // a repeated key was first issued at least this many designs earlier
)

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// daemon is a running fsmserved child.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon spawns fsmserved on a free loopback port and returns once
// /healthz answers, with the elapsed set-up time.
func startDaemon(bin string) (*daemon, float64, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		cmd.Wait()
		return nil, 0, fmt.Errorf("fsmserved exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("fsmserved did not report its address")
	}
	for time.Since(t0) < 30*time.Second {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("fsmserved /healthz never answered")
}

// stop sends SIGTERM, waits for exit and returns the peak RSS in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
	}
	d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// ref is a stored workload trace reference and its outcomes, which the
// benchmark regenerates itself for the replay check.
type ref struct {
	Program string `json:"program"`
	Variant string `json:"variant"`
	Events  int    `json:"events"`
	PC      string `json:"pc,omitempty"`
	bits    []bool
}

// simCase is one simulate input: a machine, a trace and the expected
// answer from replay.
type simCase struct {
	body           []byte // the request's JSON fields, shared by unary and batch forms
	total, correct int
	events         int // outcomes replayed, for fsm.span_skip_ratio
}

// request is one scheduled operation and, after it ran, its outcome.
type request struct {
	kind string // design, simulate, batch, search
	due  time.Duration
	body []byte
	// Exactly one of these describes the expected answer.
	designKey string
	firstUse  bool // first request of designKey (a cache fill)
	sims      []*simCase
	search    *searchCase

	sent, doneAt time.Duration
	status       int
	resp         []byte
	err          error
}

type searchCase struct {
	bits   []bool
	warmup int
}

// serveInputs are the generated inputs of one serve run.
type serveInputs struct {
	refs     []*ref // per-branch substreams of every stored trace
	warmup   []*request
	schedule []*request
}

func buildServeInputs(seed int64, seconds float64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	var globals []*ref // whole-program outcome streams
	for _, p := range workload.BranchSuite() {
		for _, v := range []workload.Variant{workload.Train, workload.Test} {
			evs := p.Generate(v, serveEvents)
			sub := map[uint64][]bool{}
			var pcs []uint64
			for _, e := range evs {
				if _, ok := sub[e.PC]; !ok {
					pcs = append(pcs, e.PC)
				}
				sub[e.PC] = append(sub[e.PC], e.Taken)
			}
			sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
			for _, pc := range pcs {
				in.refs = append(in.refs, &ref{Program: p.Name, Variant: variantName(v), Events: serveEvents,
					PC: fmt.Sprintf("%#x", pc), bits: sub[pc]})
			}
			globals = append(globals, &ref{Program: p.Name, Variant: variantName(v), Events: serveEvents, bits: outcomes(evs)})
		}
	}

	// Design keys: (whole-program stream, order, bias threshold, keep
	// unseen), drawn without replacement so every first use is a full
	// design. The key set is about the size a 30-second run uses, so
	// runs of different seeds design nearly the same machines, in a
	// different order.
	type dkey struct {
		r          *ref
		order      int
		bias       float64
		keepUnseen bool
	}
	var keys []dkey
	for _, r := range globals {
		for order := 5; order <= 9; order++ {
			for _, bias := range []float64{0, 0.8} {
				keys = append(keys, dkey{r, order, bias, false}, dkey{r, order, bias, true})
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	designBody := func(k dkey) []byte {
		opts := map[string]any{"order": k.order}
		if k.bias != 0 {
			opts["bias_threshold"] = k.bias
		}
		if k.keepUnseen {
			opts["keep_unseen"] = true
		}
		b, _ := json.Marshal(map[string]any{"workload": k.r, "options": opts})
		return b
	}

	// Simulate inputs: seeded random machines over seeded GenBiased
	// traces, and machines the warm-up designs return over stored
	// substreams (those are filled in after warm-up).
	var biased [][]bool
	for i := 0; i < biasedTraces; i++ {
		evs, err := trace.GenBiased(biasedLen, 0.55+0.4*rng.Float64(), float64(rng.Intn(128)), rng.Int63())
		if err != nil {
			return nil, err
		}
		biased = append(biased, outcomes(evs))
	}
	var sims []*simCase
	for i := 0; i < randomMachines; i++ {
		m := randomMachine(rng, 2+rng.Intn(14))
		for _, bits := range biased {
			sims = append(sims, newSimCase(m, map[string]any{"trace": bitString(bits)}, bits, rng.Intn(64)))
		}
	}

	// Warm-up: one design per stored trace and variant, so the traces
	// are generated before the clock starts.
	seen := map[string]bool{}
	for _, r := range in.refs {
		id := r.Program + "/" + r.Variant
		if seen[id] {
			continue
		}
		seen[id] = true
		k := dkey{r: r, order: 4} // order 4 is outside the measured key space
		in.warmup = append(in.warmup, &request{kind: "design", body: designBody(k), designKey: string(designBody(k)), firstUse: true})
	}

	// The measured schedule: evenly spaced arrivals per class.
	span := time.Duration(seconds * float64(time.Second))
	issued := 0
	for t := time.Duration(0); t < span; t += time.Duration(float64(time.Second) / designRate) {
		var k dkey
		first := issued < len(keys) && (issued < repeatMinBehind || rng.Float64() >= repeatShare)
		if first {
			k = keys[issued]
			issued++
		} else {
			k = keys[rng.Intn(issued-repeatMinBehind+1)]
		}
		b := designBody(k)
		in.schedule = append(in.schedule, &request{kind: "design", due: t, body: b, designKey: string(b), firstUse: first})
	}
	simPick := func() *simCase { return sims[rng.Intn(len(sims))] }
	for t := time.Duration(float64(time.Second) / simulateRate / 2); t < span; t += time.Duration(float64(time.Second) / simulateRate) {
		in.schedule = append(in.schedule, &request{kind: "simulate", due: t, sims: []*simCase{simPick()}})
	}
	// Each batch replays small machines over one stored substream, the
	// shape the batch plane coalesces into one fleet pass. Its body stays
	// under one 4 KiB client write: larger NDJSON bodies can lose lines
	// (see README.md, "Known defect").
	for t := batchEvery / 3; t < span; t += batchEvery {
		r := &request{kind: "batch", due: t}
		ref, skip := in.refs[rng.Intn(len(in.refs))], rng.Intn(16)
		for i := 0; i < batchLines; i++ {
			m := randomMachine(rng, 2+rng.Intn(3))
			r.sims = append(r.sims, newSimCase(m, map[string]any{"workload": ref}, ref.bits, skip))
		}
		in.schedule = append(in.schedule, r)
	}
	// Searches alternate exact and adaptive mode over traces of one
	// shape, so their cost does not depend on the seed.
	for i, t := 0, searchEvery/2; t < span; i, t = i+1, t+searchEvery {
		evs, err := trace.GenBiased(searchTraceLen, 0.8, 16, rng.Int63())
		if err != nil {
			return nil, err
		}
		bits := outcomes(evs)
		sc := &searchCase{bits: bits, warmup: 32}
		b, _ := json.Marshal(map[string]any{"trace": bitString(bits), "options": map[string]any{
			"states": 6, "population": 64, "generations": 30, "seed": rng.Int63n(1 << 30),
			"warmup": sc.warmup, "mode": []string{"exact", "adaptive"}[i%2],
		}})
		in.schedule = append(in.schedule, &request{kind: "search", due: t, body: b, search: sc})
	}
	sort.SliceStable(in.schedule, func(i, j int) bool { return in.schedule[i].due < in.schedule[j].due })
	return in, nil
}

// refSims makes simulate cases that replay warm-up-designed machines
// over stored substreams.
func (in *serveInputs) refSims(rng *rand.Rand, machines [][]byte) []*simCase {
	var out []*simCase
	for _, raw := range machines {
		m, err := decodeMachine(raw)
		if err != nil {
			continue
		}
		for i := 0; i < 4; i++ {
			r := in.refs[rng.Intn(len(in.refs))]
			out = append(out, newSimCase(m, map[string]any{"workload": r}, r.bits, rng.Intn(16)))
		}
	}
	return out
}

func newSimCase(m *machine, src map[string]any, bits []bool, skip int) *simCase {
	body := map[string]any{"machine": m, "skip": skip}
	for k, v := range src {
		body[k] = v
	}
	b, _ := json.Marshal(body)
	total, correct := replay(m, bits, skip)
	return &simCase{body: b, total: total, correct: correct, events: len(bits)}
}

func randomMachine(rng *rand.Rand, n int) *machine {
	m := &machine{Start: rng.Intn(n), States: make([][3]int, n)}
	for i := range m.States {
		m.States[i] = [3]int{rng.Intn(2), rng.Intn(n), rng.Intn(n)}
	}
	return m
}

func bitString(bits []bool) string {
	b := make([]byte, len(bits))
	for i, x := range bits {
		b[i] = '0'
		if x {
			b[i] = '1'
		}
	}
	return string(b)
}

func variantName(v workload.Variant) string {
	if v == workload.Test {
		return "test"
	}
	return "train"
}

// runServe runs the serve workload.
func runServe(o options) (*result, error) {
	in, err := buildServeInputs(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < daemonSpawns; i++ {
		dd, s, err := startDaemon(o.daemon)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < daemonSpawns-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	client := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	g := &generator{client: client, base: d.base}

	// Warm-up, off the clock: generate the stored traces and collect
	// machines for the stored-substream simulate cases.
	var t tally
	var designed [][]byte
	for _, r := range in.warmup {
		g.do(r, time.Time{})
		if m, ok := designMachine(r); ok {
			designed = append(designed, m)
		}
	}
	rng := rand.New(rand.NewSource(o.seed ^ 0x5e7e))
	extra := in.refSims(rng, designed)
	for _, r := range in.schedule {
		if r.kind == "simulate" && rng.Intn(2) == 0 && len(extra) > 0 {
			r.sims[0] = extra[rng.Intn(len(extra))]
		}
	}
	for _, r := range in.schedule {
		r.body = requestBody(r)
	}
	before, err := scrape(client, d.base)
	if err != nil {
		d.stop()
		return nil, err
	}

	tr := newTracer()
	busy0, steal0 := vmTimes()
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range in.schedule {
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(r *request) {
			defer wg.Done()
			s := tr.op(spanName(r.kind))
			g.do(r, start)
			s.end()
		}(r)
	}
	wg.Wait()
	busy1, steal1 := vmTimes()
	wall := 0.0
	for _, r := range in.schedule {
		wall = max(wall, r.doneAt.Seconds())
	}
	after, err := scrape(client, d.base)
	rss := d.stop()
	if err != nil {
		return nil, err
	}

	checkServe(&t, in.warmup)
	stages := checkServe(&t, in.schedule)
	res := newResult(t)
	lat := latencies(in.schedule)
	if !o.traced {
		res.set("setup_s", median(setups), "s")
		res.set("wall_s", wall, "s")
		res.set("peak_rss_mb", rss, "MB")
		res.set("op_p50_ms", median(append(lat["design"], lat["simulate"]...)), "ms")
		for _, kind := range []string{"design", "simulate", "batch", "search"} {
			logf("serve %s latency from due: %s", kind, describe(lat[kind]))
		}
		return res, nil
	}
	vals := serveLayers(before, after, stages, lat, in.schedule, o.seconds)
	vals["harness.raw_wall_s"] = wall
	vals["harness.steal_share"] = stealShare(busy1-busy0, steal1-steal0)
	for layer, s := range selfTimes(tr.snapshot()) {
		vals[layer+".self_s"] = s
	}
	setLayers(res, vals)
	return res, writeSpans(o, []*pass{{res: workerResult{Spans: tr.snapshot()}}})
}

func spanName(kind string) string {
	if kind == "batch" {
		return "batch.simulate"
	}
	return "service." + kind
}

// requestBody renders a scheduled request's wire body.
func requestBody(r *request) []byte {
	switch r.kind {
	case "simulate":
		return r.sims[0].body
	case "batch":
		var buf bytes.Buffer
		for i, c := range r.sims {
			fmt.Fprintf(&buf, "{\"id\":\"%d\",%s\n", i, c.body[1:])
		}
		return buf.Bytes()
	}
	return r.body
}

// generator issues requests over the shared two-connection client.
type generator struct {
	client *http.Client
	base   string
}

var paths = map[string]string{
	"design": "/v1/design", "simulate": "/v1/simulate", "batch": "/v1/batch/simulate", "search": "/v1/search",
}

func (g *generator) do(r *request, start time.Time) {
	if start.IsZero() {
		start = time.Now()
	}
	r.sent = time.Since(start)
	ctype := "application/json"
	if r.kind == "batch" {
		ctype = "application/x-ndjson"
	}
	resp, err := g.client.Post(g.base+paths[r.kind], ctype, bytes.NewReader(r.body))
	if err == nil {
		r.status = resp.StatusCode
		r.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.err = err
	r.doneAt = time.Since(start)
}

func (r *request) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is the time from when the request was due to its answer.
func (r *request) latency() float64 { return float64(r.doneAt-r.due) / 1e6 }

func latencies(reqs []*request) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reqs {
		if r.ok() {
			out[r.kind] = append(out[r.kind], r.latency())
		}
	}
	return out
}

// machineEvents is the machine-events a successful simulate, batch or
// search request asked the kernels for: the denominator of
// fsm.span_skip_ratio.
func (r *request) machineEvents() float64 {
	if !r.ok() {
		return 0
	}
	var n float64
	for _, c := range r.sims {
		n += float64(c.events)
	}
	if r.search != nil {
		var resp struct{ Evaluations int }
		if json.Unmarshal(r.resp, &resp) == nil {
			n += float64(resp.Evaluations) * float64(len(r.search.bits))
		}
	}
	return n
}

func designMachine(r *request) ([]byte, bool) {
	if !r.ok() {
		return nil, false
	}
	var resp struct {
		Machine json.RawMessage `json:"machine"`
	}
	if json.Unmarshal(r.resp, &resp) != nil {
		return nil, false
	}
	return resp.Machine, true
}

// checkServe checks every answer: simulate totals and batch lines
// against replay, repeated designs for byte-identical machines, and
// search miss rates against replay of the champion. It returns the
// pipeline stage times (ns) of the first-use designs.
func checkServe(t *tally, reqs []*request) map[string][]float64 {
	stages := map[string][]float64{}
	machines := map[string]string{}
	for _, r := range reqs {
		if !r.ok() {
			t.fail(fmt.Errorf("%s request: status %d, %v: %s", r.kind, r.status, r.err, truncate(r.resp)))
			continue
		}
		switch r.kind {
		case "design":
			var resp struct {
				Key     string          `json:"key"`
				Machine json.RawMessage `json:"machine"`
				States  int             `json:"states"`
				Stats   struct {
					Stages []struct {
						Stage string `json:"stage"`
						Nanos int64  `json:"nanos"`
					} `json:"stages"`
				} `json:"stats"`
			}
			if err := json.Unmarshal(r.resp, &resp); err != nil {
				t.fail(err)
				continue
			}
			m, err := decodeMachine(resp.Machine)
			ok := err == nil && len(m.States) == resp.States
			id := resp.Key + string(resp.Machine)
			if prev, seen := machines[r.designKey]; seen {
				ok = ok && prev == id
			} else {
				machines[r.designKey] = id
			}
			t.check(ok, "design %s: invalid or not byte-identical to an earlier answer (%v)", r.designKey, err)
			if r.firstUse {
				for _, s := range resp.Stats.Stages {
					stages[s.Stage] = append(stages[s.Stage], float64(s.Nanos))
				}
			}
		case "simulate":
			var resp struct{ Total, Correct int }
			err := json.Unmarshal(r.resp, &resp)
			c := r.sims[0]
			t.check(err == nil && resp.Total == c.total && resp.Correct == c.correct,
				"simulate: got %d/%d, replay gives %d/%d", resp.Correct, resp.Total, c.correct, c.total)
		case "batch":
			got := map[int]bool{}
			for _, line := range strings.Split(strings.TrimSpace(string(r.resp)), "\n") {
				var l struct {
					ID     string `json:"id"`
					Result *struct{ Total, Correct int }
					Error  string `json:"error"`
				}
				i := -1
				if json.Unmarshal([]byte(line), &l) == nil {
					if n, err := strconv.Atoi(l.ID); err == nil && n >= 0 && n < len(r.sims) && !got[n] {
						i = n
					}
				}
				if i < 0 || l.Result == nil {
					t.check(false, "batch line %q is malformed or an error", truncate([]byte(line)))
					continue
				}
				got[i] = true
				c := r.sims[i]
				t.check(l.Result.Total == c.total && l.Result.Correct == c.correct,
					"batch line %d: got %d/%d, replay gives %d/%d", i, l.Result.Correct, l.Result.Total, c.correct, c.total)
			}
			for i := range r.sims {
				if !got[i] {
					t.check(false, "batch line %d missing", i)
				}
			}
		case "search":
			var resp struct {
				Machine  json.RawMessage `json:"machine"`
				MissRate float64         `json:"miss_rate"`
			}
			err := json.Unmarshal(r.resp, &resp)
			var m *machine
			if err == nil {
				m, err = decodeMachine(resp.Machine)
			}
			ok := err == nil && missRate(replay(m, r.search.bits, r.search.warmup)) == resp.MissRate
			t.check(ok, "search: miss_rate %v does not match replay (%v)", resp.MissRate, err)
		}
	}
	return stages
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// scrape reads /metrics into name → value (histogram buckets skipped).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// serveLayers derives the serve workload's per-layer metrics.
func serveLayers(before, after map[string]float64, stages map[string][]float64, lat map[string][]float64, reqs []*request, seconds float64) map[string]float64 {
	delta := func(name string) float64 { return after["fsmpredict_"+name] - before["fsmpredict_"+name] }
	v := map[string]float64{}
	v["service.design_hit_ratio"] = ratio(delta("design_cache_hits_total"), delta("design_requests_total"))
	v["service.dedup_joined"] = delta("design_dedup_joined_total")
	v["service.shed"] = delta("design_shed_total")
	v["service.design_ms"] = 1000 * ratio(delta("design_seconds_sum"), delta("design_seconds_count"))
	v["service.search_ms"] = median(lat["search"])
	v["service.design_p50_ms"] = median(lat["design"])
	v["service.design_p99_ms"] = quantile(lat["design"], 0.99)
	v["harness.design_samples"] = float64(len(lat["design"]))
	v["harness.simulate_samples"] = float64(len(lat["simulate"]))
	v["service.simulate_p50_ms"] = median(lat["simulate"])
	v["service.simulate_p99_ms"] = quantile(lat["simulate"], 0.99)
	v["service.batch_p50_ms"] = median(lat["batch"])
	for stage, ns := range stages {
		v["core."+stage+"_ms"] = median(ns) / 1e6
	}
	v["batch.items_per_pass"] = ratio(delta("batch_simulate_items_total"), delta("batch_simulate_flushes_total"))
	v["batch.passes"] = delta("batch_simulate_passes_total")
	v["fsm.fleet_mb"] = delta("fleet_simulated_bytes_total") / 1e6
	v["fsm.block_hit_ratio"] = ratio(delta("blocktable_hits"), delta("blocktable_hits")+delta("blocktable_misses"))
	var late []float64
	good, events := 0, 0.0
	for _, r := range reqs {
		events += r.machineEvents()
		late = append(late, float64(r.sent-r.due)/1e6)
		if (r.kind == "design" || r.kind == "simulate") && r.ok() && r.latency() <= float64(latencyLimit)/1e6 {
			good++
		}
	}
	v["fsm.span_skip_ratio"] = ratio(delta("span_skipped_events_total"), events)
	v["harness.late_p99_ms"] = quantile(late, 0.99)
	v["harness.goodput_rps"] = float64(good) / seconds
	return v
}
