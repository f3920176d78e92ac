package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dnn"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/regression"
	"repro/internal/units"
)

// The kernel-wise predictor core. KWModel (§5.4) and IGKWModel (§5.5) are
// one predictor: a layer→kernel mapping table plus one regression line per
// kernel, evaluated on the kernel's driver variable and summed over the
// network's kernel list. They differ only in where the lines come from — KW
// fits them on the GPU's own measurements, IGKW derives them from the
// target's theoretical bandwidth — so both embed kernelWise, which owns the
// resolved-line table, the fallback rule, plan compilation and every
// prediction path.

// kernelLine is one resolved regression: the line and the driver variable
// it is evaluated on.
type kernelLine struct {
	line   regression.Line
	driver Driver
}

// lineTable is the data of the fallback rule. kernels holds every kernel
// with a model of its own; families holds the pooled tile-variant models,
// already restricted to families with enough observations to trust; classes
// holds one pooled line per driver class, the last resort.
type lineTable struct {
	kernels  map[string]kernelLine
	families map[string]kernelLine
	classes  map[Driver]regression.Line
}

// resolve is the fallback rule: the kernel's own line, else its family's,
// else the pooled line of a class guessed from the layer (kernels carrying
// FLOPs are treated as main kernels, zero-FLOPs kernels as output-driven
// data movement). A missing class line is the zero line, whose prediction
// clamps to minPrediction — the floor.
func (t *lineTable) resolve(name string, flopsZero bool) kernelLine {
	if kl, ok := t.kernels[name]; ok {
		return kl
	}
	if kl, ok := t.families[FamilyOf(name)]; ok {
		return kl
	}
	d := DriverOperation
	if flopsZero {
		d = DriverOutput
	}
	return kernelLine{line: t.classes[d], driver: d}
}

// modelKind tells the two embedders apart for Name and the predict
// latency metric. The zero value is KW, so a KWModel built by composite
// literal behaves as one.
type modelKind uint8

const (
	kindKWModel modelKind = iota
	kindIGKWModel
)

var (
	kindNames          = [...]string{kindKWModel: "KW", kindIGKWModel: "IGKW"}
	kindPredictMetrics = [...]*obs.Histogram{kindKWModel: metricKWPredict, kindIGKWModel: metricIGKWPredict}
)

// kernelWise is the shared core. Its table is written only where the
// coefficients change (the fits, Load and the online rebuild), and every
// such write either builds a fresh model or clears the caches.
type kernelWise struct {
	// Mapping is the layer-signature→kernel-list look-up table.
	Mapping map[string][]string
	// Training marks a training-step model (see KWOptions.Training).
	Training bool

	lines lineTable
	// gpu labels compiled plans: the model's GPU, or IGKW's target.
	gpu  string
	kind modelKind

	// plans caches compiled prediction plans per network (see plan.go),
	// which makes repeated predictions allocation-free and safe for
	// concurrent use; coefficient changes clear it. The zero value is ready.
	plans cache.Sharded[planKey, *Plan]
}

// Name implements Predictor: "KW" or "IGKW".
func (m *kernelWise) Name() string { return kindNames[m.kind] }

// PredictKernel predicts one kernel invocation's duration from its name and
// the layer-level driver candidates.
func (m *kernelWise) PredictKernel(name string, layerFLOPs units.FLOPs, layerInElems, layerOutElems int64) units.Seconds {
	kl := m.lines.resolve(name, layerFLOPs == 0)
	x := driverValue(kl.driver, layerFLOPs, layerInElems, layerOutElems)
	return clampTime(units.Seconds(kl.line.Predict(x)))
}

// kernelsForLayer resolves a layer to its kernel list: first through the
// learned mapping table; for signatures never observed in training, through
// the deterministic library-dispatch rules (the same rules the mapping table
// was traced from — cuDNN's dispatch is public behaviour, not a measured
// quantity).
func (m *kernelWise) kernelsForLayer(l *dnn.Layer) []kernels.Kernel {
	var ks []kernels.Kernel
	if m.Training {
		ks = kernels.ForLayerTraining(l)
	} else {
		ks = kernels.ForLayer(l)
	}
	if names, ok := m.Mapping[l.Signature()]; ok && len(names) == len(ks) {
		// Use the traced names (they match the dispatch rules by
		// construction; the check guards against stale tables).
		for i := range ks {
			ks[i].Name = names[i]
		}
	}
	return ks
}

// PredictNetwork implements Predictor: the sum over the network's kernel
// list of the per-kernel predictions. Queries are served from a compiled
// prediction plan (see plan.go) cached per network, so repeated predictions
// at any batch size up to the plan's MaxBatch run allocation-free, never
// mutate n, and are safe to issue from many goroutines. Results are
// bit-identical to PredictNetworkUncached; batches above MaxBatch are
// rejected.
//
//dnnperf:allocfree
func (m *kernelWise) PredictNetwork(n *dnn.Network, batch int) (units.Seconds, error) {
	tm := obs.StartTimer(kindPredictMetrics[m.kind])
	defer tm.Stop()
	if batch <= 0 {
		// Route through the uncached path for its validation error.
		//lint:ignore allocfree the invalid-batch path is off the steady state by definition
		return m.PredictNetworkUncached(n, batch)
	}
	p, err := m.planFor(n)
	if err != nil {
		// Compilation fails only for networks the uncached path also rejects;
		// take it so callers see the familiar shape-inference errors.
		//lint:ignore allocfree the compile-failure path is off the steady state by definition
		return m.PredictNetworkUncached(n, batch)
	}
	if err := p.CheckBatch(batch); err != nil {
		return 0, err
	}
	return p.Predict(batch), nil
}

// PredictSweep predicts the network at every batch size in batches, in
// input order, through one pass over the compiled plan. Results are
// bit-identical to calling PredictNetwork per batch size; the win is that
// the per-call overhead (fingerprint, cache lookup, timer) is paid once for
// the whole sweep and the plan's segments stay hot across batch sizes. All
// batch sizes must be positive and at most the plan's MaxBatch. A network
// whose plan fails to compile (its shape inference fails) returns that
// error.
func (m *kernelWise) PredictSweep(n *dnn.Network, batches []int) ([]units.Seconds, error) {
	tm := obs.StartTimer(metricSweepPredict)
	defer tm.Stop()
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("core: %s sweep of %q: batch size %d must be positive", m.Name(), n.Name, b)
		}
	}
	observeSweep(len(batches))
	p, err := m.planFor(n)
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if err := p.CheckBatch(b); err != nil {
			return nil, err
		}
	}
	return p.PredictSweep(batches), nil
}

// PredictNetworkUncached is the reference prediction path: shape-infer the
// network at the batch size (mutating n) and sum per-kernel predictions. It
// is the behavior PredictNetwork had before plan compilation and remains the
// ground truth plans are tested against.
func (m *kernelWise) PredictNetworkUncached(n *dnn.Network, batch int) (units.Seconds, error) {
	if err := n.Infer(batch); err != nil {
		return 0, err
	}
	var total units.Seconds
	for _, l := range n.Layers {
		for _, k := range m.kernelsForLayer(l) {
			total += m.PredictKernel(k.Name, units.FLOPs(k.LayerFLOPs), k.LayerInputElems, k.LayerOutputElems)
		}
	}
	return total, nil
}

// planFor returns the cached compiled plan for the network, compiling it on
// first use. Concurrent callers for the same network share one compilation.
// The cache hit path is allocation-free; the closure below only costs (and
// only runs) on a compile miss.
//
//dnnperf:allocfree
func (m *kernelWise) planFor(n *dnn.Network) (*Plan, error) {
	key := planKey{name: n.Name, fp: networkFingerprint(n, m.Training)}
	//lint:ignore allocfree the GetOrCompute closure allocates only on the compile miss path
	return m.plans.GetOrCompute(key, func() (*Plan, error) {
		return m.CompilePlan(n)
	})
}

// CompiledPlan returns the model's cached compiled plan for the network,
// compiling it on first use — the exact plan PredictNetwork executes.
// Exposed so callers that attribute latency per stage (the serve tracing
// path) can time compile and predict separately while producing
// bit-identical predictions; such callers check Plan.CheckBatch first.
func (m *kernelWise) CompiledPlan(n *dnn.Network) (*Plan, error) { return m.planFor(n) }

// CompilePlan compiles a standalone prediction plan for the network without
// touching the model's plan cache. The input network is never mutated.
func (m *kernelWise) CompilePlan(n *dnn.Network) (*Plan, error) {
	return compilePlan(n, m)
}

// launchCount returns the number of kernels one batch of the network
// dispatches, read off the cached plan (the count is batch-invariant: batch
// size changes kernel *names*, never how many a layer launches). Returns 0
// for networks that fail to compile.
func (m *kernelWise) launchCount(n *dnn.Network) int {
	p, err := m.planFor(n)
	if err != nil {
		return 0
	}
	return p.EntryCount()
}

// PredictLayers predicts each layer's execution time at the batch size —
// the sum of its kernels' predictions, 0 for a layer that launches none —
// in n.Layers order. This is the per-layer granularity the
// disaggregated-memory case study schedules with. It reads the cached
// compiled plan, so n is never mutated, and each layer's time adds its
// kernels' terms in the order PredictNetworkUncached does.
func (m *kernelWise) PredictLayers(n *dnn.Network, batch int) ([]units.Seconds, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("core: %s per-layer prediction of %q: batch size %d must be positive", m.Name(), n.Name, batch)
	}
	p, err := m.planFor(n)
	if err != nil {
		return nil, err
	}
	if err := p.CheckBatch(batch); err != nil {
		return nil, err
	}
	out := make([]units.Seconds, len(n.Layers))
	p.PredictLayersInto(out, batch)
	return out, nil
}
