package core

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// TestFitKWMappingFromMergedCollections fits on two collections of the same
// networks (different simulator seeds) merged into one dataset, as a CSV
// made by joining two collection runs is. The (network, batch, layer) keys
// repeat across the two halves, so the mapping table must be built from
// contiguous layer instances: the merged fit's table equals the table of
// either collection alone, not one with every kernel list doubled.
func TestFitKWMappingFromMergedCollections(t *testing.T) {
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	nets := zooSample()[:5]
	first, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SimConfig = sim.Config{Seed: 99}
	second, _, err := dataset.Build(nets, []gpu.Spec{gpu.A100}, opt)
	if err != nil {
		t.Fatal(err)
	}
	merged := &dataset.Dataset{}
	merged.Merge(first)
	merged.Merge(second)
	if merged.Clean() != 0 {
		t.Fatal("the two collections share records; the fixture does not repeat keys")
	}

	alone, err := FitKW(first, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	both, err := FitKW(merged, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Mapping) == 0 {
		t.Fatal("empty mapping table")
	}
	doubled := 0
	for sig, names := range both.Mapping {
		if len(names) != len(alone.Mapping[sig]) {
			doubled++
		}
	}
	if doubled > 0 || !reflect.DeepEqual(both.Mapping, alone.Mapping) {
		t.Fatalf("merged fit's mapping differs from one collection's: %d of %d kernel lists changed length",
			doubled, len(both.Mapping))
	}
}

// BenchmarkFitKW times the production KW fit (the bench_compare gate for
// this package): core.FitKW over the zoo-sample A100 dataset, collected
// once outside the timer.
func BenchmarkFitKW(b *testing.B) {
	ds := buildSampleDataset(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitKW(ds, "A100", 512); err != nil {
			b.Fatal(err)
		}
	}
}
