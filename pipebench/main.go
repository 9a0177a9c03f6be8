// Command pipebench is the benchmark of the paper's whole pipeline. One
// invocation runs one workload for a fixed time, checks every output it
// produced against oracles that do not share code with the simulation
// kernels, and prints one JSON result line:
//
//	pipebench -workload paper-grid|search|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run. run.sh builds this
// binary and the fsmserved daemon from source and then runs it; see
// README.md for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations; its problems are logged to stderr.
type tally struct {
	attempted, failed int
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		log.Printf("check failed: "+format, args...)
	}
}

// fail records an operation that could not even be checked.
func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	log.Printf("operation failed: %v", err)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string
	daemon   string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipebench: ")
	var (
		o         options
		traceFlag int
		worker    string
		out       string
		setupOnly bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload: paper-grid, search or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&o.work, "work", ".bench_build/pipebench/work", "scratch directory for pass outputs and span files")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/pipebench/bin/fsmserved", "fsmserved binary for the serve workload")
	flag.StringVar(&worker, "worker", "", "internal: run one pass of this workload in this process")
	flag.StringVar(&out, "out", "", "internal: worker output directory")
	flag.BoolVar(&setupOnly, "setup-only", false, "internal: worker exits once its inputs exist")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		log.Fatalf("-trace must be 0 or 1")
	}
	o.traced = traceFlag == 1

	if worker != "" {
		if err := runWorker(worker, out, o.seed, o.traced, setupOnly); err != nil {
			log.Fatal(err)
		}
		return
	}
	if o.seconds <= 0 {
		log.Fatalf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		log.Fatal(err)
	}
	var (
		res *result
		err error
	)
	switch o.workload {
	case "paper-grid", "search":
		res, err = runPasses(o)
	case "serve":
		res, err = runServe(o)
	default:
		log.Fatalf("unknown workload %q (want paper-grid, search or serve)", o.workload)
	}
	if err != nil {
		log.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(b))
}

func newResult(t tally) *result {
	return &result{
		Correct:   t.attempted > 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// describe summarizes latencies (ms) with their sample count.
func describe(xs []float64) string {
	return fmt.Sprintf("%d samples, p10 %.1f p50 %.1f p90 %.1f p99 %.1f ms",
		len(xs), quantile(xs, .1), quantile(xs, .5), quantile(xs, .9), quantile(xs, .99))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
