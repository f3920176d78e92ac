// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three workloads against the code in the surrounding checkout and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 34.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, and a Chrome-trace JSON of
// the run's spans is written under -out. README.md maps every layer metric
// to the end-to-end metric it should move.
//
// Run it through run.sh, which builds this program and the dnnperf binary:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outcome is what one workload run reports back to main.
type outcome struct {
	attempted, failed int64
	// e2e holds the end-to-end metrics (untraced runs); layers the
	// per-layer metrics (traced runs). Keys are BENCHMARK.json names.
	e2e, layers map[string]float64
}

// fail records failed operations; failures are also attempted operations
// the caller has already counted.
func (o *outcome) fail(n int64, format string, args ...any) {
	if n == 0 {
		return
	}
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// env carries the settings every workload needs.
type env struct {
	seed    int64
	seconds float64
	dnnperf string // built dnnperf binary
	out     string // directory for traces and artifacts
	tr      *tracer
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper, serve or capacity")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	dnnperf := flag.String("dnnperf", "", "path of the built dnnperf binary (serve workload)")
	out := flag.String("out", ".bench_build", "directory for traces and artifacts")
	role := flag.String("role", "", "internal: run as a helper process (proxy)")
	replicas := flag.String("replicas", "", "internal: comma-separated replica addresses for -role proxy")
	flag.Parse()

	if *role == "proxy" {
		if err := runProxyRole(*replicas); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: *seconds, dnnperf: *dnnperf, out: *out}
	if *trace == 1 {
		e.tr = newTracer()
	}

	prov := provenance()
	steal := stealNow()
	var o *outcome
	switch *workload {
	case "paper":
		o, err = runPaper(e)
	case "serve":
		o, err = runServe(e)
	case "capacity":
		o, err = runCapacity(e)
	default:
		err = fmt.Errorf("unknown -workload %q (want paper, serve or capacity)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	prov["steal_frac"] = steal.frac()
	prov["workload"] = *workload
	prov["seed"] = *seed
	prov["traced"] = *trace == 1

	if e.tr != nil {
		path := filepath.Join(*out, "trace-"+*workload+".json")
		if err := e.tr.write(path, prov); err != nil {
			fatal(err)
		}
		o.layers["fail_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s (open it at https://ui.perfetto.dev)\n", path)
		for _, l := range e.tr.selfTimes() {
			fmt.Fprintf(os.Stderr, "  self %-32s %10.3f ms over %d spans\n", l.name, l.self.Seconds()*1e3, l.count)
		}
	}

	metricSet, values := spec.EndToEnd, o.e2e
	if e.tr != nil {
		metricSet, values = spec.PerLayer, o.layers
	}
	metrics := map[string]any{}
	for _, m := range metricSet {
		v, ok := values[m.Name]
		if !ok {
			if e.tr == nil {
				fatal(fmt.Errorf("workload %s did not measure end-to-end metric %s", *workload, m.Name))
			}
			// A per-layer metric the workload does not reach: the
			// workload bypasses that layer, so it spent nothing there.
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("metric %s is %v", m.Name, v))
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	for name := range values {
		if !spec.has(name) {
			fatal(fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not list", *workload, name))
		}
	}

	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(provLine))
	if o.attempted < 1 {
		o.attempted = 1
		o.failed = max(o.failed, 1)
	}
	res, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(res))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print, so the list lives in one place.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (s *benchSpec) has(name string) bool {
	for _, set := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// ---------------------------------------------------------------- statistics

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. +Inf entries (failed requests)
// sort last, so a failure counts as missing every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// repeatSetup runs a set-up step n times and returns the median seconds,
// so one slow start does not move the figure.
func repeatSetup(n int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}
