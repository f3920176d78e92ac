package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/splitmix"
	"repro/internal/units"
	"repro/internal/zoo"
)

// TestPredictRejectsBatchAboveLimit pins the batch limit: above it a
// driver value xPer·b + xConst no longer fits a float64 exactly (and at
// larger b overflows int64), so the plan and the reference path disagree
// and predictions can fall below the batch-1 value. Both plan-backed entry
// points must refuse such batches instead of answering.
func TestPredictRejectsBatchAboveLimit(t *testing.T) {
	ds := buildSampleDataset(t, false)
	kw, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	net, err := zoo.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	one, err := kw.PredictNetwork(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1 << 50, 1 << 60} {
		if got, err := kw.PredictNetwork(net, b); err == nil {
			t.Errorf("PredictNetwork(resnet50, %d) = %v (batch 1: %v), want an error", b, got, one)
		}
		if got, err := kw.PredictSweep(net, []int{1, b}); err == nil {
			t.Errorf("PredictSweep(resnet50, [1 %d]) = %v, want an error", b, got)
		}
	}
}

// kernelWisePredictor is the prediction surface KWModel and IGKWModel share.
type kernelWisePredictor interface {
	PredictNetwork(*dnn.Network, int) (units.Seconds, error)
	PredictNetworkUncached(*dnn.Network, int) (units.Seconds, error)
	CompiledPlan(*dnn.Network) (*Plan, error)
}

// TestPredictionsMonotoneAndExactUpToMaxBatch is the property test over the
// whole accepted batch domain: for KW and IGKW on every zoo-sample network,
// at log-uniform batch sizes up to the plan's MaxBatch, the plan agrees bit
// for bit with the reference path, and predictions never decrease as the
// batch grows while every kernel keeps its resolution; one past MaxBatch is
// rejected.
//
// Monotonicity is checked between batches of one resolution regime (no
// segment boundary between them), not across regimes: where the library
// dispatch switches a layer to another kernel variant (at b = 2 and b = 6
// for several zoo CNNs) the new variant's line can predict less, and the
// total drops by up to ~25%. That is the fitted models' behaviour, not a
// plan defect; it is recorded as an open item.
func TestPredictionsMonotoneAndExactUpToMaxBatch(t *testing.T) {
	kw, err := FitKW(buildSampleDataset(t, false), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	train := []gpu.Spec{gpu.A100, gpu.V100}
	ds, _, err := dataset.Build(zooSample(), train, opt)
	if err != nil {
		t.Fatal(err)
	}
	igkw, err := FitIGKW(ds, train, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]kernelWisePredictor{"KW": kw, "IGKW": igkw} {
		rng := splitmix.New(13)
		for _, n := range zooSample() {
			p, err := m.CompiledPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			if p.MaxBatch < 1<<20 {
				t.Fatalf("%s %s: MaxBatch %d below any realistic batch", name, n.Name, p.MaxBatch)
			}
			if !exactUpTo(p, p.MaxBatch) || exactUpTo(p, p.MaxBatch+1) {
				t.Fatalf("%s %s: MaxBatch %d is not the largest batch with every driver value ≤ 2^53",
					name, n.Name, p.MaxBatch)
			}
			batches := []int{1, p.MaxBatch}
			for i := 0; i < 24; i++ {
				batches = append(batches, int(math.Exp(rng.Float64()*math.Log(float64(p.MaxBatch)))))
			}
			sort.Ints(batches)
			var prev units.Seconds
			for i, b := range batches {
				if i > 0 && crossesSegment(p, batches[i-1], b) {
					prev = 0
				}
				got, err := m.PredictNetwork(n, b)
				if err != nil {
					t.Fatalf("%s %s@%d: %v", name, n.Name, b, err)
				}
				want, err := m.PredictNetworkUncached(n, b)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %s@%d: plan %v != reference %v", name, n.Name, b, got, want)
				}
				if got < prev {
					t.Fatalf("%s %s@%d: prediction %v below the smaller batch's %v", name, n.Name, b, got, prev)
				}
				prev = got
			}
			if _, err := m.PredictNetwork(n, p.MaxBatch+1); err == nil {
				t.Fatalf("%s %s: batch MaxBatch+1 accepted", name, n.Name)
			}
		}
	}
}

// crossesSegment reports whether some segment of the plan starts in (a, b]:
// whether a kernel's resolution can differ between batches a and b.
func crossesSegment(p *Plan, a, b int) bool {
	for _, s := range p.segs {
		if s.minBatch > a && s.minBatch <= b {
			return true
		}
	}
	return false
}

// exactUpTo reports whether every segment's driver value at batch b is at
// most 2^53.
func exactUpTo(p *Plan, b int) bool {
	for _, s := range p.segs {
		if s.xPer*int64(b)+s.xConst > 1<<53 {
			return false
		}
	}
	return true
}
