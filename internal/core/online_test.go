package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
)

func TestObserveRecordsRefinesGroups(t *testing.T) {
	// Fit on a slightly biased subset, then stream in the rest; the group
	// line must move toward the full-data fit.
	full := plantKernelDataset(gpu.A100, 6)
	half := plantKernelDataset(gpu.A100, 3)

	m, err := FitKW(half, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	gi := m.GroupOf["main_gemm_64x64"]
	before := m.Groups[gi].Line

	// Stream the remaining records (networks D–F).
	var fresh int
	seen := map[string]bool{}
	for _, r := range half.Kernels {
		seen[r.Network] = true
	}
	var stream = full.Kernels[:0:0]
	for _, r := range full.Kernels {
		if !seen[r.Network] {
			stream = append(stream, r)
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("no fresh records to stream")
	}
	updated, created := m.ObserveRecords(stream)
	if updated == 0 {
		t.Fatal("no groups updated")
	}
	if created != 0 {
		t.Fatalf("unexpected new kernels: %d", created)
	}
	after := m.Groups[gi].Line
	if after == before {
		t.Fatal("group line did not move")
	}
	// The refreshed line must match fitting on all the data at once.
	whole, err := FitKW(full, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	wholeLine := whole.Groups[whole.GroupOf["main_gemm_64x64"]].Line
	if math.Abs(after.Slope-wholeLine.Slope)/wholeLine.Slope > 1e-9 {
		t.Fatalf("online slope %v vs batch slope %v", after.Slope, wholeLine.Slope)
	}
}

func TestObserveRecordsPromotesNewKernels(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GroupOf["brand_new_kernel"]; ok {
		t.Fatal("kernel should not exist yet")
	}

	// Stream fewer than the promotion threshold: stays pending.
	few := plantRecords("brand_new_kernel", DriverOperation, 4e-9, 1e-6, MinKernelObservations-1, 42)
	if _, created := m.ObserveRecords(few); created != 0 {
		t.Fatal("premature promotion")
	}
	if n := m.PendingKernels()["brand_new_kernel"]; n != MinKernelObservations-1 {
		t.Fatalf("pending count = %d", n)
	}

	// One more observation crosses the threshold.
	one := plantRecords("brand_new_kernel", DriverOperation, 4e-9, 1e-6, 1, 43)
	if _, created := m.ObserveRecords(one); created != 1 {
		t.Fatal("kernel not promoted")
	}
	gi, ok := m.GroupOf["brand_new_kernel"]
	if !ok {
		t.Fatal("promoted kernel has no group")
	}
	if m.Groups[gi].Driver != DriverOperation {
		t.Fatalf("promoted driver = %s", m.Groups[gi].Driver)
	}
	// Its predictions now follow the planted law.
	got := float64(m.PredictKernel("brand_new_kernel", 1e6, 1, 1))
	want := 4e-9*1e6 + 1e-6
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("promoted prediction %v, want ≈ %v", got, want)
	}
	if len(m.PendingKernels()) != 0 {
		t.Fatal("pending buffer not drained")
	}
}

func TestObserveRecordsOnUninitializedModel(t *testing.T) {
	// A model assembled without initOnline (e.g. deserialized) must not
	// panic; ObserveRecords bootstraps the state lazily.
	m := &KWModel{GPU: "A100", GroupOf: map[string]int{}, Classif: map[string]Classification{}}
	recs := plantRecords("k", DriverInput, 1e-9, 1e-6, MinKernelObservations, 44)
	if _, created := m.ObserveRecords(recs); created != 1 {
		t.Fatal("bootstrap promotion failed")
	}
}

// TestObserveRecordsKeepsFitOptions fits with each design-choice option on
// the first 3/4 of the zoo-sample A100 records and observes one more
// record: the rebuilt model must still honour the option it was fitted
// with.
func TestObserveRecordsKeepsFitOptions(t *testing.T) {
	ds := buildSampleDataset(t, false)
	cut := len(ds.Kernels) * 3 / 4
	head := &dataset.Dataset{Kernels: ds.Kernels[:cut]}
	next := ds.Kernels[cut : cut+1]

	fit := func(opt KWOptions) *KWModel {
		t.Helper()
		m, err := FitKWOptions(head, "A100", 512, opt)
		if err != nil {
			t.Fatal(err)
		}
		m.ObserveRecords(next)
		return m
	}

	t.Run("ForceDriver", func(t *testing.T) {
		m := fit(KWOptions{ForceDriver: DriverOperation})
		for _, g := range m.Groups {
			if g.Driver != DriverOperation {
				t.Fatalf("group %v has driver %s after an update, want %s", g.Kernels, g.Driver, DriverOperation)
			}
		}
		for _, name := range sortedStringKeys(m.Families) {
			if d := m.Families[name].Driver; d != DriverOperation {
				t.Fatalf("family %s has driver %s after an update, want %s", name, d, DriverOperation)
			}
		}
	})
	t.Run("DisableFamilyFallback", func(t *testing.T) {
		m := fit(KWOptions{DisableFamilyFallback: true})
		if len(m.Families) != 0 || len(m.lines.families) != 0 {
			t.Fatalf("family tier has %d entries (%d resolved) after an update, want 0",
				len(m.Families), len(m.lines.families))
		}
	})
	t.Run("DisableGrouping", func(t *testing.T) {
		m := fit(KWOptions{DisableGrouping: true})
		if len(m.Groups) == 0 {
			t.Fatal("no groups")
		}
		for _, g := range m.Groups {
			if len(g.Kernels) != 1 {
				t.Fatalf("group of %d kernels after an update, want singletons", len(g.Kernels))
			}
		}
	})
}
