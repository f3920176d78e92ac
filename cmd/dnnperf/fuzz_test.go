package main

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/zoo"
)

// FuzzParseBatchesCSV feeds arbitrary query strings to the /predict/batch
// batches parser (seed corpus under testdata/fuzz): it must never panic,
// and any list it accepts is non-empty, within maxSweepPoints and all
// positive.
func FuzzParseBatchesCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, csv string) {
		out, err := parseBatchesCSV(csv)
		if err != nil {
			return
		}
		if len(out) == 0 || len(out) > maxSweepPoints {
			t.Fatalf("parseBatchesCSV(%q) accepted %d points", csv, len(out))
		}
		for _, b := range out {
			if b <= 0 {
				t.Fatalf("parseBatchesCSV(%q) accepted batch %d", csv, b)
			}
		}
	})
}

// specKW is a KW model fitted once on ResNet-18 for FuzzNetworkFromSpec,
// kept apart from fittedServer's so fuzzed networks never reach the handler
// tests' plan cache.
var (
	specKWOnce sync.Once
	specKW     *core.KWModel
	specKWErr  error
)

func fuzzKW(tb testing.TB) *core.KWModel {
	tb.Helper()
	specKWOnce.Do(func() {
		opt := dataset.DefaultBuildOptions()
		opt.Batches = 3
		opt.Warmup = 1
		opt.E2EBatchSizes = []int{512}
		ds, _, err := dataset.Build([]*dnn.Network{zoo.MustResNet(18)}, []gpu.Spec{gpu.A100}, opt)
		if err != nil {
			specKWErr = err
			return
		}
		specKW, specKWErr = core.FitKW(ds, "A100", 512)
	})
	if specKWErr != nil {
		tb.Fatal(specKWErr)
	}
	return specKW
}

// FuzzNetworkFromSpec feeds arbitrary JSON to the inline network-spec
// decoder behind POST /predict/batch (seed corpus under testdata/fuzz). It
// must never panic, and every tensor of a spec it accepts holds at least
// one element. Every accepted spec either fails to predict with an error or
// predicts a finite time at batch 1 through a fitted KW model: positive
// when the network launches a kernel, exactly 0 when every layer is a
// kernel-free view (Flatten, Dropout, Identity, token reshape).
func FuzzNetworkFromSpec(f *testing.F) {
	kw := fuzzKW(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec batchSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		n, err := networkFromSpec(&spec)
		if err != nil {
			return
		}
		// Every dimension of an accepted tensor is positive, so a count
		// below 1 means the element count wrapped.
		for _, l := range n.Layers {
			if l.InShape.Numel() < 1 || l.OutShape.Numel() < 1 {
				t.Fatalf("spec %s accepted layer %q with %s → %s", body, l.Name, l.InShape, l.OutShape)
			}
		}
		v, err := kw.PredictNetwork(n, 1)
		if err != nil {
			return
		}
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v < 0 {
			t.Fatalf("spec %s predicts %v at batch 1", body, v)
		}
		p, err := kw.CompiledPlan(n)
		if err != nil {
			t.Fatalf("spec %s predicts %v but its plan fails: %v", body, v, err)
		}
		if (v > 0) != (p.EntryCount() > 0) {
			t.Fatalf("spec %s predicts %v over %d kernels", body, v, p.EntryCount())
		}
	})
}
