package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/zoo"
)

// planFixtureBatches are the query batch sizes the identity tests cover: the
// small-batch regime (1, 4), a mid point (64) and the training batch (512).
var planFixtureBatches = []int{1, 4, 64, 512}

// zooSample returns the quick-lab zoo sample (every sixth network).
func zooSample() []*dnn.Network {
	full := zoo.Full()
	var sub []*dnn.Network
	for i := 0; i < len(full); i += 6 {
		sub = append(sub, full[i])
	}
	return sub
}

// buildSampleDataset collects a reduced dataset of the zoo sample on A100.
func buildSampleDataset(t testing.TB, training bool) *dataset.Dataset {
	t.Helper()
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	opt.Training = training
	ds, _, err := dataset.Build(zooSample(), []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertPlanIdentity checks that the plan-backed prediction path returns the
// exact same float64 (==, not within-epsilon) as the reference uncached path
// for every network in the sample at every fixture batch size.
func assertPlanIdentity(t *testing.T, predict func(*dnn.Network, int) (units.Seconds, error),
	uncached func(*dnn.Network, int) (units.Seconds, error)) {
	t.Helper()
	for _, n := range zooSample() {
		for _, batch := range planFixtureBatches {
			want, wantErr := uncached(n, batch)
			got, gotErr := predict(n, batch)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s@%d: uncached err %v, plan err %v", n.Name, batch, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if got != want {
				t.Fatalf("%s@%d: plan %v != uncached %v (diff %g)",
					n.Name, batch, got, want, got-want)
			}
		}
	}
}

// assertLayerIdentity checks that the plan's per-layer times equal the
// reference per-layer sum — PredictKernel over kernelsForLayer at the
// inferred shapes — bit for bit, for every network in the sample at every
// fixture batch size.
func assertLayerIdentity(t *testing.T, m *kernelWise) {
	t.Helper()
	for _, n := range zooSample() {
		for _, batch := range planFixtureBatches {
			ref := n.Clone()
			if err := ref.Infer(batch); err != nil {
				if _, err := m.PredictLayers(n, batch); err == nil {
					t.Fatalf("%s@%d: reference fails to infer, plan does not", n.Name, batch)
				}
				continue
			}
			got, err := m.PredictLayers(n, batch)
			if err != nil {
				t.Fatalf("%s@%d: %v", n.Name, batch, err)
			}
			for i, l := range ref.Layers {
				var want units.Seconds
				for _, k := range m.kernelsForLayer(l) {
					want += m.PredictKernel(k.Name, units.FLOPs(k.LayerFLOPs), k.LayerInputElems, k.LayerOutputElems)
				}
				if got[i] != want {
					t.Fatalf("%s@%d layer %d (%s): plan %v != reference %v", n.Name, batch, i, l.Name, got[i], want)
				}
			}
		}
	}
}

// TestKWPlanBitIdentical is the accuracy-preservation proof for the inference
// model: the compiled-plan fast path must be bit-identical to the original
// Infer-and-sum path for every zoo-sample network at every batch size.
func TestKWPlanBitIdentical(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanIdentity(t, kw.PredictNetwork, kw.PredictNetworkUncached)
	assertLayerIdentity(t, &kw.kernelWise)
}

// TestKWPlanBitIdenticalTraining repeats the identity proof for a
// training-step model, whose kernel lists include backward and optimizer
// kernels (the constant-driver sgd_update among them).
func TestKWPlanBitIdenticalTraining(t *testing.T) {
	ds := buildSampleDataset(t, true)
	kw, err := FitKWOptions(ds, "A100", 512, KWOptions{Training: true})
	if err != nil {
		t.Fatal(err)
	}
	assertPlanIdentity(t, kw.PredictNetwork, kw.PredictNetworkUncached)
	assertLayerIdentity(t, &kw.kernelWise)
}

// TestIGKWPlanBitIdentical repeats the identity proof for the
// interpolation-based cross-GPU model.
func TestIGKWPlanBitIdentical(t *testing.T) {
	ds := &dataset.Dataset{}
	for _, g := range []gpu.Spec{gpu.A100, gpu.A40, gpu.V100} {
		ds.Merge(plantKernelDataset(g, 3))
	}
	m, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanIdentity(t, m.PredictNetwork, m.PredictNetworkUncached)
	assertLayerIdentity(t, &m.kernelWise)
}

// TestKWAndIGKWPredictAllocFree checks the steady-state PredictNetwork of
// both kernel-wise models at 0 allocs per call against a warm plan cache,
// with observation on (the timer path included).
func TestKWAndIGKWPredictAllocFree(t *testing.T) {
	ds := &dataset.Dataset{}
	for _, g := range []gpu.Spec{gpu.A100, gpu.A40, gpu.V100} {
		ds.Merge(plantKernelDataset(g, 3))
	}
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	igkw, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.V100}, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	net := zoo.MustResNet(50)
	for name, m := range map[string]Predictor{"KW": kw, "IGKW": igkw} {
		if _, err := m.PredictNetwork(net, 512); err != nil {
			t.Fatal(err)
		}
		batch := 0
		allocs := testing.AllocsPerRun(200, func() {
			batch = batch%512 + 1
			if _, err := m.PredictNetwork(net, batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s PredictNetwork: %v allocs per call, want 0", name, allocs)
		}
	}
}

// TestPredictLayersIntoAllocFree checks the per-layer plan evaluation at 0
// allocs per call into a reused buffer.
func TestPredictLayersIntoAllocFree(t *testing.T) {
	kw, err := FitKW(plantKernelDataset(gpu.A100, 3), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net := zoo.MustResNet(50)
	p, err := kw.CompiledPlan(net)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]units.Seconds, len(net.Layers))
	batch := 0
	allocs := testing.AllocsPerRun(200, func() {
		batch = batch%512 + 1
		p.PredictLayersInto(dst, batch)
	})
	if allocs != 0 {
		t.Errorf("PredictLayersInto: %v allocs per call, want 0", allocs)
	}
}

// TestKWPlanConcurrent hammers one shared model from many goroutines (run
// under -race in CI) and checks every concurrent result against the serial
// reference. The uncached path mutates the network's shape state, so this
// also proves the plan path never touches it.
func TestKWPlanConcurrent(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	nets := zooSample()[:8]

	// Serial reference, computed first on private clones.
	want := map[string]units.Seconds{}
	for _, n := range nets {
		for _, batch := range planFixtureBatches {
			v, err := kw.PredictNetworkUncached(n.Clone(), batch)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s@%d", n.Name, batch)] = v
		}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, n := range nets {
					batch := planFixtureBatches[(g+rep+i)%len(planFixtureBatches)]
					got, err := kw.PredictNetwork(n, batch)
					if err != nil {
						t.Errorf("goroutine %d: %s@%d: %v", g, n.Name, batch, err)
						return
					}
					if w := want[fmt.Sprintf("%s@%d", n.Name, batch)]; got != w {
						t.Errorf("goroutine %d: %s@%d: %v != %v", g, n.Name, batch, got, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanSegments checks the piecewise structure: ResNet-50's GEMM tiles
// change with batch size, so its plan must carry more segments than entries,
// while every entry keeps at least one.
func TestPlanSegments(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net, err := zoo.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	p, err := kw.CompilePlan(net)
	if err != nil {
		t.Fatal(err)
	}
	if p.EntryCount() == 0 {
		t.Fatal("plan has no entries")
	}
	if p.SegmentCount() <= p.EntryCount() {
		t.Fatalf("resnet50 plan has %d segments for %d entries; want batch-dependent resolution (more segments)",
			p.SegmentCount(), p.EntryCount())
	}
}

// TestObserveRecordsInvalidatesPlans: online updates change the regression
// lines, so cached plans must be dropped and recompiled to stay identical to
// the uncached path.
func TestObserveRecordsInvalidatesPlans(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 3)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net, err := zoo.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	before, err := kw.PredictNetwork(net, 512)
	if err != nil {
		t.Fatal(err)
	}
	if kw.plans.Len() == 0 {
		t.Fatal("prediction did not populate the plan cache")
	}

	// Shift one kernel's behaviour drastically and observe it.
	extra := plantKernelDataset(gpu.A100, 3).Kernels
	for i := range extra {
		extra[i].Seconds *= 100
	}
	kw.ObserveRecords(extra)
	if kw.plans.Len() != 0 {
		t.Fatalf("ObserveRecords left %d cached plans", kw.plans.Len())
	}

	after, err := kw.PredictNetwork(net, 512)
	if err != nil {
		t.Fatal(err)
	}
	wantAfter, err := kw.PredictNetworkUncached(net.Clone(), 512)
	if err != nil {
		t.Fatal(err)
	}
	if after != wantAfter {
		t.Fatalf("post-update plan %v != uncached %v", after, wantAfter)
	}
	if after == before {
		t.Fatal("100x slower observations did not change the prediction — stale plan served")
	}
}

// ------------------------------------------------------------- benchmarks

// benchKW builds the benchmark fixture: a KW model fitted on a tiny real
// dataset plus the ResNet-50 query network.
func benchKW(b *testing.B) (*KWModel, *dnn.Network) {
	b.Helper()
	nets := []*dnn.Network{zoo.MustResNet(50), zoo.MustResNet(18)}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 3
	opt.Warmup = 1
	opt.E2EBatchSizes = []int{512}
	ds, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		b.Fatal(err)
	}
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		b.Fatal(err)
	}
	return kw, zoo.MustResNet(50)
}

// BenchmarkPlanCompile measures one full plan compilation (the cache-miss
// cost): shape inference at every breakpoint plus kernel resolution.
func BenchmarkPlanCompile(b *testing.B) {
	kw, net := benchKW(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.CompilePlan(net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWPredictPlan measures the steady-state hot path: a repeated
// PredictNetwork against a warm plan cache. Compare with
// BenchmarkKWPredictUncached for the speedup the plan layer buys.
func BenchmarkKWPredictPlan(b *testing.B) {
	kw, net := benchKW(b)
	if _, err := kw.PredictNetwork(net, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.PredictNetwork(net, 64+(i%4)*64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWPredictUncached measures the pre-plan reference path: full shape
// inference plus per-kernel map lookups on every call.
func BenchmarkKWPredictUncached(b *testing.B) {
	kw, net := benchKW(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kw.PredictNetworkUncached(net, 64+(i%4)*64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWPredictParallel measures contended throughput: every P issues
// queries against the same cached plan, the scheduler case-study pattern.
func BenchmarkKWPredictParallel(b *testing.B) {
	kw, net := benchKW(b)
	if _, err := kw.PredictNetwork(net, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := kw.PredictNetwork(net, 64+(i%4)*64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
