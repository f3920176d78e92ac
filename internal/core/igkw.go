package core

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/regression"
)

// IGKWModel is the Inter-GPU Kernel-Wise model of §5.5: it predicts a GPU
// that is absent from the training set by re-deriving each kernel's
// regression slope from the target's *theoretical memory bandwidth*.
//
// For every kernel, the slope of its kernel-wise regression on a GPU
// represents the achieved processing rate (the reciprocal of the slope is
// the achieved FLOPS for operation-driven kernels, §4 O6). Observation O6 —
// bandwidth efficiency is roughly stable across GPUs while compute
// efficiency is not — means this rate is approximately linear in the GPU's
// theoretical bandwidth. The model therefore fits, per kernel,
//
//	rate(GPU) = a + b·bandwidth(GPU)
//
// over the training GPUs, and instantiates a kernel-wise predictor for the
// target from rate(target bandwidth). Regression intercepts (launch
// overheads) are carried over as the training-GPU average.
type IGKWModel struct {
	// TrainGPUs names the GPUs whose measurements trained the model.
	TrainGPUs []string
	// Target is the GPU being predicted (never measured).
	Target gpu.Spec
	// TrainBatch is the batch size of the training measurements.
	TrainBatch int

	// kernelWise holds the union mapping table, the per-kernel,
	// per-family and per-class lines resolved for the target, and the
	// prediction paths. IGKW models are inference models: Training stays
	// false.
	kernelWise
}

// IGKWBase is the target-independent part of the inter-GPU model: per-GPU
// kernel classifications and the union mapping table. Resolving a target GPU
// from a base is cheap, which is what makes bandwidth design-space sweeps
// (case study 1) take milliseconds per point.
type IGKWBase struct {
	fits       []gpuFit
	famFits    []gpuFit
	trainBatch int
	mapping    map[string][]string
}

// FitIGKWBase performs the per-GPU training work shared by every target.
func FitIGKWBase(ds *dataset.Dataset, trainGPUs []gpu.Spec, trainBatch int) (*IGKWBase, error) {
	if len(trainGPUs) < 2 {
		return nil, fmt.Errorf("core: IGKW model needs at least 2 training GPUs, got %d", len(trainGPUs))
	}
	b := &IGKWBase{trainBatch: trainBatch, mapping: map[string][]string{}}
	for _, g := range trainGPUs {
		recs := cellKernels(ds, g.Name, trainBatch)
		if len(recs) == 0 {
			return nil, errNoRecords("IGKW", g.Name)
		}
		b.fits = append(b.fits, gpuFit{spec: g, classif: ClassifyKernels(recs), records: recs})
		buildMapping(b.mapping, recs)
	}
	// Family-level classifications, for sparse/unseen kernels.
	b.famFits = make([]gpuFit, len(b.fits))
	for i, f := range b.fits {
		fam := familyRecords(f.records)
		b.famFits[i] = gpuFit{spec: f.spec, classif: ClassifyKernels(fam), records: fam}
	}
	return b, nil
}

// TrainGPUNames returns the names of the training GPUs.
func (b *IGKWBase) TrainGPUNames() []string {
	out := make([]string, len(b.fits))
	for i, f := range b.fits {
		out[i] = f.spec.Name
	}
	return out
}

// FitIGKW trains the inter-GPU model from the records of the training GPUs
// and resolves it for the target GPU. The target's measurements are never
// consulted; only its theoretical specification is.
func FitIGKW(ds *dataset.Dataset, trainGPUs []gpu.Spec, target gpu.Spec, trainBatch int) (*IGKWModel, error) {
	base, err := FitIGKWBase(ds, trainGPUs, trainBatch)
	if err != nil {
		return nil, err
	}
	return base.Resolve(target)
}

// Resolve instantiates the kernel-wise predictor for a (possibly
// hypothetical) target GPU from its theoretical bandwidth.
func (b *IGKWBase) Resolve(target gpu.Spec) (*IGKWModel, error) {
	fits := b.fits
	lines := lineTable{
		kernels:  map[string]kernelLine{},
		families: map[string]kernelLine{},
		classes:  map[Driver]regression.Line{},
	}

	// Kernel union.
	kernelSet := map[string]bool{}
	for _, f := range fits {
		for k := range f.classif {
			kernelSet[k] = true
		}
	}

	for k := range kernelSet {
		driver := majorityDriver(fits, k)
		line, ok := bandwidthScaledLine(fits, k, driver, target)
		if !ok {
			continue // fall through to family/class fallback at prediction time
		}
		lines.kernels[k] = kernelLine{line: line, driver: driver}
	}

	// Family-level bandwidth-scaled models, for sparse/unseen kernels.
	famFits := b.famFits
	famSet := map[string]bool{}
	for _, f := range famFits {
		for fam := range f.classif {
			famSet[fam] = true
		}
	}
	for fam := range famSet {
		driver := majorityDriver(famFits, fam)
		if line, ok := bandwidthScaledLine(famFits, fam, driver, target); ok {
			lines.families[fam] = kernelLine{line: line, driver: driver}
		}
	}

	// Per-driver pooled fallbacks, themselves bandwidth-scaled from each
	// training GPU's pooled class lines (a degenerate pool has slope 0 and
	// is skipped).
	pools := make([]map[Driver]regression.Line, len(fits))
	for i, f := range fits {
		pools[i] = classFallbacks(f.classif, f.records)
	}
	for _, d := range Drivers() {
		var bws, rates, intercepts []float64
		for i, f := range fits {
			line := pools[i][d]
			if line.Slope <= 0 {
				continue
			}
			bws = append(bws, f.spec.MemBWGBps)
			rates = append(rates, 1/line.Slope)
			intercepts = append(intercepts, line.Intercept)
		}
		if resolved, ok := resolveRate(bws, rates, intercepts, target.MemBWGBps); ok {
			lines.classes[d] = resolved
		}
	}

	if len(lines.kernels) == 0 {
		return nil, fmt.Errorf("core: IGKW model: no kernel observed with a usable slope on any training GPU")
	}
	m := &IGKWModel{
		TrainGPUs:  b.TrainGPUNames(),
		Target:     target,
		TrainBatch: b.trainBatch,
		kernelWise: kernelWise{
			Mapping: maps.Clone(b.mapping),
			lines:   lines,
			gpu:     target.Name,
			kind:    kindIGKWModel,
		},
	}
	m.plans.RegisterMetrics("core_igkw_plan_cache")
	return m, nil
}

// gpuFit bundles one training GPU's spec, kernel classification and raw
// records.
type gpuFit struct {
	spec    gpu.Spec
	classif map[string]Classification
	records []dataset.KernelRecord
}

// majorityDriver votes the driver class of a kernel across GPUs, weighting
// each vote by the winning fit's R².
func majorityDriver(fits []gpuFit, kernel string) Driver {
	score := map[Driver]float64{}
	for _, f := range fits {
		if c, ok := f.classif[kernel]; ok {
			w := c.R2[c.Driver]
			if w <= 0 {
				w = 1e-3
			}
			score[c.Driver] += w
		}
	}
	best := DriverOperation
	bestScore := math.Inf(-1)
	for _, d := range Drivers() {
		if s, ok := score[d]; ok && s > bestScore {
			bestScore = s
			best = d
		}
	}
	return best
}

// bandwidthScaledLine derives the kernel's time regression on the target GPU
// from its per-GPU slopes: rate = 1/slope is fitted against bandwidth and
// evaluated at the target's bandwidth.
func bandwidthScaledLine(fits []gpuFit, kernel string, driver Driver, target gpu.Spec) (regression.Line, bool) {
	var bws, rates, intercepts []float64
	for _, f := range fits {
		c, ok := f.classif[kernel]
		if !ok || c.Line.Slope <= 0 || c.N < MinKernelObservations {
			continue
		}
		// Re-fit on the voted driver if the per-GPU vote differed.
		line := c.Line
		if c.Driver != driver {
			var xs, ys []float64
			for _, r := range f.records {
				if r.Kernel == kernel {
					xs = append(xs, driverX(r, driver))
					ys = append(ys, float64(r.Seconds))
				}
			}
			refit, err := regression.Fit(xs, ys)
			if err != nil || refit.Slope <= 0 {
				continue
			}
			line = refit
		}
		bws = append(bws, f.spec.MemBWGBps)
		rates = append(rates, 1/line.Slope)
		intercepts = append(intercepts, line.Intercept)
	}
	return resolveRate(bws, rates, intercepts, target.MemBWGBps)
}

// resolveRate fits rate = a + b·bandwidth over the observations and returns
// the time regression (slope = 1/rate, intercept = mean intercept) at the
// target bandwidth. With a single observation the rate is scaled
// proportionally to bandwidth (rate/bw ratio), the through-origin special
// case.
func resolveRate(bws, rates, intercepts []float64, targetBW float64) (regression.Line, bool) {
	if len(bws) == 0 {
		return regression.Line{}, false
	}
	var rate float64
	if len(bws) == 1 {
		rate = rates[0] / bws[0] * targetBW
	} else {
		line, err := regression.Fit(bws, rates)
		if err == nil && line.Intercept < 0 {
			// A negative intercept would give zero or negative rates at low
			// bandwidths; a purely memory-bound kernel scales through the
			// origin, so refit that way.
			line, err = regression.FitOrigin(bws, rates)
		}
		if err != nil {
			// Identical bandwidths: average the rates.
			rate = regression.Mean(rates)
		} else {
			rate = line.Predict(targetBW)
		}
	}
	minRate := rates[0]
	for _, r := range rates {
		if r < minRate {
			minRate = r
		}
	}
	if rate < minRate*0.05 {
		// The linear extrapolation went non-physical (e.g. far below every
		// observed rate); clamp to a small fraction of the slowest observed
		// device rather than produce a negative rate.
		rate = minRate * 0.05
	}
	return regression.Line{
		Slope:     1 / rate,
		Intercept: regression.Mean(intercepts),
		N:         len(bws),
	}, true
}

// GPUName implements Predictor; it reports the *target* GPU.
func (m *IGKWModel) GPUName() string { return m.Target.Name }
