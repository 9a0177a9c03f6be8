package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// Worker processes that only set up and exit: setupsPerPass before
	// each pass and at least minSetups per run, so setup_s is a median
	// over many set-ups.
	setupsPerPass = 2
	minSetups     = 20
	// minPasses bounds a run from below when a pass outlasts -seconds.
	minPasses = 3
	// passTimeout kills a worker that hangs.
	passTimeout = 150 * time.Second
)

// pass is one worker process's outcome.
type pass struct {
	setupS float64
	rssMB  float64
	res    workerResult
}

// spawn runs one worker process and waits for it.
func spawn(o options, dir string, setupOnly bool) (*pass, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-worker", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-out", dir, "-trace", strconv.Itoa(boolInt(o.traced)), "-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &pass{}
	sc := bufio.NewScanner(stdout)
	ready := sc.Scan() && sc.Text() == "ready"
	p.setupS = time.Since(t0).Seconds()
	for sc.Scan() {
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("worker %s: %v", o.workload, err)
	}
	if !ready {
		return nil, fmt.Errorf("worker %s never reported ready", o.workload)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if setupOnly {
		return p, nil
	}
	b, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	return p, json.Unmarshal(b, &p.res)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runPasses measures a workload made of cold passes (paper-grid,
// search): each pass is a fresh worker process, timed and checked.
// A traced run alternates traced and untraced passes so the tracing
// overhead is the difference of their medians.
func runPasses(o options) (*result, error) {
	var (
		t        tally
		setups   []float64
		walls    []float64 // net of steal
		rawWalls []float64
		steals   []float64
		// cpu and steal sum over the untraced passes. /proc/stat counts
		// steal in 10 ms ticks, too coarse for one few-millisecond
		// set-up, so set-ups are netted with the passes' steal share.
		cpu, steal float64
		rss        []float64
		ops        []float64
		traced     []*pass
		tracedW    []float64
		firstRun   []champion
	)
	check := newChecker(o)
	setUp := func(n int) error {
		for ; n > 0; n-- {
			p, err := spawn(o, "", true)
			if err != nil {
				return err
			}
			setups = append(setups, p.setupS)
		}
		return nil
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < o.seconds; i++ {
		// Set-ups are spread over the run so that they see the same
		// steal as the passes whose share nets them.
		if err := setUp(setupsPerPass); err != nil {
			return nil, err
		}
		po := o
		po.traced = o.traced && i%2 == 1
		dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p, err := spawn(po, dir, false)
		if err != nil {
			t.fail(err)
			os.RemoveAll(dir)
			continue
		}
		switch o.workload {
		case "paper-grid":
			checkGrid(&t, dir)
		case "search":
			firstRun = check.search(&t, p.res.Champions, firstRun)
		}
		os.RemoveAll(dir)
		if po.traced {
			traced = append(traced, p)
			tracedW = append(tracedW, netOfSteal(p.res.WallS, p.res.CPUS, p.res.StealS))
			continue
		}
		walls = append(walls, netOfSteal(p.res.WallS, p.res.CPUS, p.res.StealS))
		cpu, steal = cpu+p.res.CPUS, steal+p.res.StealS
		rawWalls = append(rawWalls, p.res.WallS)
		steals = append(steals, stealShare(p.res.CPUS, p.res.StealS))
		rss = append(rss, p.rssMB)
		ops = append(ops, p.res.OpsMS...)
	}
	if err := setUp(minSetups - len(setups)); err != nil {
		return nil, err
	}
	r := newResult(t)
	if len(walls) == 0 {
		return r, fmt.Errorf("no pass of %s completed", o.workload)
	}
	if !o.traced {
		r.set("setup_s", median(setups)*(1-stealShare(cpu, steal)), "s")
		r.set("wall_s", median(walls), "s")
		r.set("peak_rss_mb", median(rss), "MB")
		r.set("op_p50_ms", 1000*median(walls), "ms")
		logf("%s: %d untraced passes, raw wall median %.3f s, steal share median %.3f; calls within them: %s",
			o.workload, len(walls), median(rawWalls), median(steals), describe(ops))
		return r, nil
	}
	if len(traced) == 0 {
		return r, fmt.Errorf("no traced pass of %s completed", o.workload)
	}
	layerMetrics(r, traced)
	r.set("harness.trace_overhead_s", median(tracedW)-median(walls), "s")
	r.set("harness.raw_wall_s", median(rawWalls), "s")
	r.set("harness.steal_share", median(steals), "ratio")
	return r, writeSpans(o, traced)
}

// writeSpans writes every traced pass's spans to the work directory.
func writeSpans(o options, traced []*pass) error {
	all := make([][]span, len(traced))
	for i, p := range traced {
		all[i] = p.res.Spans
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	name := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	logf("spans of %d traced passes in %s", len(traced), name)
	return os.WriteFile(name, b, 0o644)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "pipebench: "+format+"\n", args...) }
