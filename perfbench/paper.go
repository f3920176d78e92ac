package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/zoo"
)

// The paper workload is `dnnperf all` at full fidelity: a fresh
// bench.NewLab() (the 646-network zoo, 30 measured batches) and the 25
// experiment generators in paper order. It loads collection, fitting, plan
// compilation and prediction, and bypasses HTTP and fleetsim. The seed
// does not change it: the pipeline is deterministic by design.

// tablesDigestFile holds one "<experiment> <sha256>" line per experiment:
// the digest of its rendered table as `dnnperf all` prints it, with the
// one timing column (Table 2's "KW time (s)") zeroed.
const tablesDigestFile = "perfbench/paper_tables.sha256"

// paperSetups is how many labs a run builds for setup_s; building one
// takes tens of milliseconds, so the median needs several.
const paperSetups = 9

// paperExperiment is one generator of `dnnperf all`.
type paperExperiment struct {
	name string
	run  func(*bench.Lab) (string, error)
}

// paperAccuracy captures the two accuracy figures the benchmark holds fixed.
type paperAccuracy struct{ kw, igkw float64 }

// paperExperiments mirrors `dnnperf all`: the same generators, arguments
// and order (cmd/dnnperf's experimentOrder).
func paperExperiments(acc *paperAccuracy) []paperExperiment {
	render := func(r interface{ Render() string }, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	return []paperExperiment{
		{"table1", func(*bench.Lab) (string, error) { return bench.Table1().Render(), nil }},
		{"fig3", func(l *bench.Lab) (string, error) { return render(bench.Figure3(l, gpu.A100)) }},
		{"fig4", func(l *bench.Lab) (string, error) { return render(bench.Figure4(l, gpu.A100)) }},
		{"fig5", func(l *bench.Lab) (string, error) { return render(bench.Figure5(l, gpu.A100)) }},
		{"fig6", func(l *bench.Lab) (string, error) { return render(bench.Figure6(l, gpu.A100)) }},
		{"fig7", func(l *bench.Lab) (string, error) { return render(bench.Figure7(l, gpu.A100)) }},
		{"fig8", func(l *bench.Lab) (string, error) { return render(bench.Figure8(l, gpu.A100)) }},
		{"fig9", func(l *bench.Lab) (string, error) { return render(bench.Figure9(l)) }},
		{"fig11", func(l *bench.Lab) (string, error) { return render(bench.Figure11(l, gpu.A100)) }},
		{"fig12", func(l *bench.Lab) (string, error) { return render(bench.Figure12(l, gpu.A100)) }},
		{"fig13", func(l *bench.Lab) (string, error) {
			r, err := bench.Figure13(l, gpu.A100)
			if err != nil {
				return "", err
			}
			acc.kw = r.Curve.MeanError
			return r.Render(), nil
		}},
		{"table2", func(l *bench.Lab) (string, error) {
			r, err := bench.Table2(l)
			if err != nil {
				return "", err
			}
			// The column is host time, not a result; zeroing it keeps
			// the table digest stable.
			for i := range r.Rows {
				r.Rows[i].KWSeconds = 0
			}
			return r.Render(), nil
		}},
		{"fig14", func(l *bench.Lab) (string, error) {
			r, err := bench.Figure14(l)
			if err != nil {
				return "", err
			}
			acc.igkw = r.Curve.MeanError
			return r.Render(), nil
		}},
		{"fig15", func(l *bench.Lab) (string, error) { return render(bench.Figure15(l)) }},
		{"fig16", func(l *bench.Lab) (string, error) { return render(bench.Figure16(l)) }},
		{"fig17", func(l *bench.Lab) (string, error) { return render(bench.Figure17(l)) }},
		{"fig18", func(l *bench.Lab) (string, error) { return render(bench.Figure18(l)) }},
		{"fig19", func(l *bench.Lab) (string, error) { return render(bench.Figure19(l)) }},
		{"ablation", func(l *bench.Lab) (string, error) { return render(bench.Ablation(l, gpu.A100)) }},
		{"training", func(l *bench.Lab) (string, error) { return render(bench.TrainingExtension(l, gpu.A100)) }},
		{"mig", func(l *bench.Lab) (string, error) { return render(bench.MIGExtension(l)) }},
		{"smallbatch", func(l *bench.Lab) (string, error) { return render(bench.SmallBatch(l, gpu.A100)) }},
		{"uncertainty", func(l *bench.Lab) (string, error) { return render(bench.Uncertainty(l, gpu.A100)) }},
		{"robustness", func(l *bench.Lab) (string, error) {
			return render(bench.Robustness(l, gpu.A100, []int64{0, 1, 2, 3, 4}))
		}},
		{"online", func(l *bench.Lab) (string, error) { return render(bench.OnlineLearning(l, gpu.A100)) }},
	}
}

// paperPass is one run of the whole pipeline.
type paperPass struct {
	wallS  float64
	expMS  []float64 // per-experiment wall, ms
	tables []string  // rendered tables, experiment order
	acc    paperAccuracy
}

// runPipeline runs the 25 generators on a lab; with a tracer, each one is
// a bench.<experiment>_s span under parent.
func runPipeline(l *bench.Lab, tr *tracer, parent spanRef) (*paperPass, error) {
	p := &paperPass{}
	exps := paperExperiments(&p.acc)
	start := time.Now()
	for _, x := range exps {
		sp := tr.begin("bench."+x.name+"_s", parent)
		t0 := time.Now()
		text, err := x.run(l)
		p.expMS = append(p.expMS, time.Since(t0).Seconds()*1e3)
		sp.end(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
		p.tables = append(p.tables, text)
	}
	p.wallS = time.Since(start).Seconds()
	return p, nil
}

func runPaper(e *env) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	tr := e.tr
	var lab *bench.Lab
	root := tr.begin("paper.setup", spanRef{})
	setupS, err := repeatSetup(paperSetups, func() error {
		sp := tr.begin("zoo.build_s", root)
		lab = bench.NewLab()
		sp.end(map[string]any{"networks": len(lab.Networks())})
		return nil
	})
	root.end(nil)
	if err != nil {
		return nil, err
	}

	want, err := readTableDigests(tablesDigestFile)
	if err != nil {
		return nil, err
	}

	// Untraced runs measure passes until --seconds have elapsed (one pass
	// already takes longer on any machine this targets); a traced run
	// makes one untraced and one traced pass, whose difference is the
	// tracing overhead.
	var passes []*paperPass
	measureStart := time.Now()
	for len(passes) == 0 || (tr == nil && time.Since(measureStart).Seconds() < e.seconds) {
		if len(passes) > 0 {
			lab = bench.NewLab()
		}
		p, err := runPipeline(lab, nil, spanRef{})
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	for _, p := range passes {
		checkTables(o, p.tables, want, e.out)
	}

	var walls, expMS []float64
	for _, p := range passes {
		walls = append(walls, p.wallS)
		expMS = append(expMS, p.expMS...)
	}
	last := passes[len(passes)-1]
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.e2e["wall_s"] = median(walls)
	o.e2e["setup_s"] = setupS
	o.e2e["peak_rss_mb"] = rss
	o.e2e["kw_err"] = last.acc.kw
	o.e2e["igkw_err"] = last.acc.igkw
	// An operation of this workload is one experiment.
	o.e2e["peak_rps"] = float64(len(expMS)) / sum(walls)
	o.e2e["p50_ms"] = median(append([]float64(nil), expMS...))

	if tr == nil {
		return o, nil
	}

	// Traced pass on a fresh lab, then per-layer probes on its cached
	// datasets.
	untracedWall := last.wallS
	lab = bench.NewLab()
	runtime.GC()
	pipe := tr.begin("paper.pipeline", spanRef{})
	traced, err := runPipeline(lab, tr, pipe)
	pipe.end(nil)
	if err != nil {
		return nil, err
	}
	checkTables(o, traced.tables, want, e.out)
	o.layers["trace.overhead_s"] = traced.wallS - untracedWall
	for _, x := range paperExperiments(&paperAccuracy{}) {
		d, _ := tr.total("bench." + x.name + "_s")
		o.layers["bench."+x.name+"_s"] = d.Seconds()
	}
	o.layers["zoo.build_s"] = setupS
	if err := paperLayerProbes(o, lab, tr); err != nil {
		return nil, err
	}
	return o, nil
}

// paperLayerProbes times the pipeline's layers one call at a time, outside
// the traced pass so they do not perturb it.
func paperLayerProbes(o *outcome, lab *bench.Lab, tr *tracer) error {
	probe := tr.begin("paper.layer_probes", spanRef{})
	defer probe.end(nil)

	// Collection on a fresh lab: the A100 slice of the paper's dataset.
	fresh := bench.NewLab()
	sp := tr.begin("dataset.collect_s", probe)
	ds, err := fresh.Dataset(gpu.A100)
	d := sp.end(nil)
	if err != nil {
		return err
	}
	o.layers["dataset.collect_s"] = d.Seconds()
	o.layers["dataset.records"] = float64(len(ds.Networks) + len(ds.Layers) + len(ds.Kernels))
	fresh, ds = nil, nil
	runtime.GC()

	// Profiler: the 40 standard networks at batch 64 on A100.
	std := zoo.Standard()
	prof := profiler.New(sim.NewDefault(gpu.A100))
	sp = tr.begin("profiler.profile_us", probe)
	for _, n := range std {
		if _, err := prof.Profile(n, 64); err != nil {
			return err
		}
	}
	d = sp.end(map[string]any{"profiles": len(std)})
	o.layers["profiler.profile_us"] = d.Seconds() * 1e6 / float64(len(std))

	// Fits on the pipeline lab's cached datasets.
	a100, err := lab.Dataset(gpu.A100)
	if err != nil {
		return err
	}
	train, _ := lab.Split(a100)
	var kw *core.KWModel
	fits := []struct {
		name string
		fit  func() error
	}{
		{"core.fit_kw_s", func() (err error) { kw, err = core.FitKW(train, gpu.A100.Name, bench.TrainBatch); return }},
		{"core.fit_lw_s", func() error { _, err := core.FitLW(train, gpu.A100.Name, bench.TrainBatch); return err }},
		{"core.fit_e2e_s", func() error { _, err := core.FitE2E(train, gpu.A100.Name, bench.TrainBatch); return err }},
		{"core.fit_igkw_s", func() error {
			// Figure 14's fit: three measured GPUs, TITAN RTX unseen.
			src := []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti}
			multi, err := lab.Dataset(src...)
			if err != nil {
				return err
			}
			trainDS := &dataset.Dataset{}
			for _, g := range src {
				trainDS.Merge(multi.FilterGPU(g.Name))
			}
			_, err = core.FitIGKW(trainDS, src, gpu.TitanRTX, bench.TrainBatch)
			return err
		}},
	}
	for _, f := range fits {
		sp := tr.begin(f.name, probe)
		err := f.fit()
		d := sp.end(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		o.layers[f.name] = d.Seconds()
	}

	// Plan compilation over the whole zoo, outside the model's cache.
	nets := lab.Networks()
	sp = tr.begin("core.compile_us", probe)
	for _, n := range nets {
		if _, err := kw.CompilePlan(n); err != nil {
			return err
		}
	}
	d = sp.end(map[string]any{"networks": len(nets)})
	o.layers["core.compile_us"] = d.Seconds() * 1e6 / float64(len(nets))

	// Plan.Predict over the zoo at the serving batch sizes.
	ns, err := planPredictNS(kw, nets, tr, probe)
	if err != nil {
		return err
	}
	o.layers["core.predict_ns"] = ns
	return nil
}

// checkTables compares each experiment's table with its recorded digest
// and counts every mismatch as a failed operation. The text is written
// under out so a mismatch can be diffed against `dnnperf all`.
func checkTables(o *outcome, tables []string, want map[string]string, out string) {
	exps := paperExperiments(&paperAccuracy{})
	var all, sums strings.Builder
	for i, text := range tables {
		o.attempted++
		all.WriteString(text)
		all.WriteString("\n")
		got := digest(text)
		fmt.Fprintf(&sums, "%s %s\n", exps[i].name, got)
		if w, ok := want[exps[i].name]; !ok || w != got {
			o.fail(1, "table of %s: digest %s, want %s", exps[i].name, got, w)
		}
	}
	fmt.Fprintf(&all, "all %d experiments regenerated\n", len(tables))
	for name, body := range map[string]string{"paper_tables.txt": all.String(), "paper_tables.sha256": sums.String()} {
		path := filepath.Join(out, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", path, err)
		}
	}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func readTableDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, d, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[name] = strings.TrimSpace(d)
	}
	return out, sc.Err()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
