package core

import (
	"maps"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/regression"
)

// KWModel is the Kernel-Wise model of §5.4. It consists of
//
//  1. a layer→kernel mapping table learned from the training traces, keyed
//     by the layer's structural signature ("the cuDNN library decides the
//     kernels to use according to the problem sizes, so we create a look-up
//     table that maps from the layer type and input/output size to the
//     kernel list");
//  2. a per-kernel classification into input-/operation-/output-driven
//     (ClassifyKernels, observation O5); and
//  3. grouped linear regressions — kernels with similar linear behaviour
//     share one model (GroupKernels).
//
// Prediction sums the per-kernel regression outputs over the network's
// kernel list. Only network structure is consumed.
type KWModel struct {
	// GPU is the device the model was trained on.
	GPU string
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int
	// Classif is the learned per-kernel classification.
	Classif map[string]Classification
	// Groups and GroupOf are the merged regression models and the
	// kernel→group index.
	Groups  []Group
	GroupOf map[string]int
	// Families holds one pooled classification per kernel family (tile
	// variants merged), used for kernels with too few training observations
	// to support their own regression, and for kernel names never seen in
	// training (e.g. a tile variant only a test network triggers).
	Families map[string]Classification
	// ClassFallback holds one pooled regression per driver class, the last
	// resort for kernels whose family is also unknown.
	ClassFallback map[Driver]regression.Line

	// kernelWise holds the mapping table, the training flag, the
	// resolved-line table derived from the fields above (kwLines) and the
	// prediction paths.
	kernelWise

	// online holds the incremental-learning state (see online.go).
	online *onlineState
}

// KWOptions expose the kernel-wise model's design choices for ablation
// studies. The zero value is the paper's full design.
type KWOptions struct {
	// ForceDriver, when non-empty, skips the R²-based classification and
	// regresses every kernel against the given driver — ablating
	// observation O5's classification step.
	ForceDriver Driver
	// DisableGrouping gives every kernel its own regression instead of
	// merging similar kernels into shared models.
	DisableGrouping bool
	// DisableFamilyFallback removes the family-pooled middle tier of the
	// prediction fallback hierarchy; sparse and unseen kernels drop
	// straight to the per-class pooled lines.
	DisableFamilyFallback bool
	// Training marks a model trained on training-step measurements; its
	// predictions lower layers through the training kernel pipeline
	// (forward + backward + optimizer).
	Training bool
}

// FitKW trains a Kernel-Wise model from the dataset's kernel records on the
// given GPU at the given batch size, with the paper's full design.
func FitKW(ds *dataset.Dataset, gpuName string, trainBatch int) (*KWModel, error) {
	return FitKWOptions(ds, gpuName, trainBatch, KWOptions{})
}

// FitKWOptions is FitKW with explicit design-choice options.
func FitKWOptions(ds *dataset.Dataset, gpuName string, trainBatch int, opt KWOptions) (*KWModel, error) {
	recs := cellKernels(ds, gpuName, trainBatch)
	if len(recs) == 0 {
		return nil, errNoRecords("KW", gpuName)
	}
	mapping := map[string][]string{}
	buildMapping(mapping, recs)

	classif := ClassifyKernels(recs)
	if opt.ForceDriver != "" {
		classif = forceDriver(classif, recs, opt.ForceDriver)
	}
	var groups []Group
	var groupOf map[string]int
	if opt.DisableGrouping {
		groups, groupOf = singletonGroups(classif)
	} else {
		groups, groupOf = GroupKernels(classif, recs)
	}

	famRecs := familyRecords(recs)
	families := ClassifyKernels(famRecs)
	if opt.ForceDriver != "" {
		families = forceDriver(families, famRecs, opt.ForceDriver)
	}
	if opt.DisableFamilyFallback {
		families = map[string]Classification{}
	}
	classes := classFallbacks(classif, recs)
	m := &KWModel{
		GPU:           gpuName,
		TrainBatch:    trainBatch,
		Classif:       classif,
		Groups:        groups,
		GroupOf:       groupOf,
		Families:      families,
		ClassFallback: classes,
		kernelWise: kernelWise{
			Mapping:  mapping,
			Training: opt.Training,
			lines:    kwLines(groups, groupOf, families, classes),
			gpu:      gpuName,
		},
	}
	m.initOnline(recs, opt)
	m.plans.RegisterMetrics("core_kw_plan_cache")
	return m, nil
}

// kwLines derives the resolved-line table from the KW coefficients: each
// grouped kernel resolves to its group's line, families with enough
// observations to their pooled line, and the class tier to the pooled
// class lines.
func kwLines(groups []Group, groupOf map[string]int, families map[string]Classification,
	classes map[Driver]regression.Line) lineTable {

	t := lineTable{
		kernels:  make(map[string]kernelLine, len(groupOf)),
		families: make(map[string]kernelLine, len(families)),
		classes:  maps.Clone(classes),
	}
	for name, gi := range groupOf {
		t.kernels[name] = kernelLine{line: groups[gi].Line, driver: groups[gi].Driver}
	}
	for fam, c := range families {
		if c.N >= MinKernelObservations {
			t.families[fam] = kernelLine{line: c.Line, driver: c.Driver}
		}
	}
	return t
}

// forceDriver refits every kernel's line on a single imposed driver.
func forceDriver(classif map[string]Classification, recs []dataset.KernelRecord, d Driver) map[string]Classification {
	byKernel := recordsByKernel(recs)
	out := make(map[string]Classification, len(classif))
	for name, c := range classif {
		rs := byKernel[name]
		var xs, ys []float64
		for _, ri := range rs {
			xs = append(xs, driverX(recs[ri], d))
			ys = append(ys, float64(recs[ri].Seconds))
		}
		forced := Classification{Kernel: name, Driver: d, R2: c.R2, N: len(rs)}
		if line, err := regression.Fit(xs, ys); err == nil {
			forced.Line = line
		} else {
			forced.Line = regression.Line{Intercept: regression.Mean(ys), N: len(ys)}
		}
		out[name] = forced
	}
	return out
}

// familyRecords rewrites record kernel names to their families.
func familyRecords(recs []dataset.KernelRecord) []dataset.KernelRecord {
	out := make([]dataset.KernelRecord, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Kernel = FamilyOf(out[i].Kernel)
	}
	return out
}

// classFallbacks pools all records of each driver class into one regression.
func classFallbacks(classif map[string]Classification, recs []dataset.KernelRecord) map[Driver]regression.Line {
	xs := map[Driver][]float64{}
	ys := map[Driver][]float64{}
	for _, r := range recs {
		c, ok := classif[r.Kernel]
		if !ok {
			continue
		}
		xs[c.Driver] = append(xs[c.Driver], driverX(r, c.Driver))
		ys[c.Driver] = append(ys[c.Driver], float64(r.Seconds))
	}
	out := map[Driver]regression.Line{}
	for _, d := range Drivers() {
		if line, err := regression.Fit(xs[d], ys[d]); err == nil {
			out[d] = line
		} else {
			out[d] = regression.Line{Intercept: regression.Mean(ys[d])}
		}
	}
	return out
}

// singletonGroups wraps every sufficiently-observed kernel in its own group.
func singletonGroups(classif map[string]Classification) ([]Group, map[string]int) {
	var groups []Group
	groupOf := map[string]int{}
	for _, name := range SortedKernels(classif) {
		c := classif[name]
		if c.N < MinKernelObservations {
			continue
		}
		groupOf[name] = len(groups)
		groups = append(groups, Group{Driver: c.Driver, Kernels: []string{name}, Line: c.Line})
	}
	return groups, groupOf
}

// cellKernels returns the kernel records of one (GPU, batch size) cell in
// dataset order, in a slice sized exactly by a counting pass (the pattern
// Dataset.FilterGPU uses), so the copy never pays append growth.
func cellKernels(ds *dataset.Dataset, gpuName string, batch int) []dataset.KernelRecord {
	n := 0
	for i := range ds.Kernels {
		if r := &ds.Kernels[i]; r.GPU == gpuName && r.BatchSize == batch {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]dataset.KernelRecord, 0, n)
	for i := range ds.Kernels {
		if r := &ds.Kernels[i]; r.GPU == gpuName && r.BatchSize == batch {
			out = append(out, *r)
		}
	}
	return out
}

// buildMapping adds the layer-signature→kernel-list entries of the records
// to mapping, first wins. A layer instance's kernels are contiguous in
// launch order (Dataset.AddTrace emits them so), and a change of network,
// GPU, batch size or layer index between consecutive records closes the
// instance. Instances of one signature launch the same kernels by
// construction, so the first one seen is kept. Reading instances as
// contiguous runs, not as (network, batch, layer) keys, keeps two
// collections of the same networks merged into one dataset from
// concatenating each other's kernel lists.
func buildMapping(mapping map[string][]string, recs []dataset.KernelRecord) {
	for start := 0; start < len(recs); {
		first := &recs[start]
		end := start + 1
		for end < len(recs) {
			r := &recs[end]
			if r.LayerIndex != first.LayerIndex || r.Network != first.Network ||
				r.BatchSize != first.BatchSize || r.GPU != first.GPU {
				break
			}
			end++
		}
		if _, ok := mapping[first.LayerSignature]; !ok {
			names := make([]string, end-start)
			for i := range names {
				names[i] = recs[start+i].Kernel
			}
			mapping[first.LayerSignature] = names
		}
		start = end
	}
}

// GPUName implements Predictor.
func (m *KWModel) GPUName() string { return m.GPU }

// ModelCount returns the number of regression models (groups) the KW model
// maintains — the paper's "for 182 kernels recorded, we built 83 linear
// regression models".
func (m *KWModel) ModelCount() int { return len(m.Groups) }

// KernelCount returns the number of distinct kernels classified.
func (m *KWModel) KernelCount() int { return len(m.Classif) }

// GroupSummaries renders a sorted per-group description for reports.
func (m *KWModel) GroupSummaries() []string {
	out := make([]string, 0, len(m.Groups))
	for _, g := range m.Groups {
		names := append([]string(nil), g.Kernels...)
		sort.Strings(names)
		out = append(out, string(g.Driver)+": "+names[0]+" (+"+strconv.Itoa(len(names)-1)+" more) "+g.Line.String())
	}
	sort.Strings(out)
	return out
}
