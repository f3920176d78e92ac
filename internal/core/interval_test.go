package core

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/units"
)

func TestIntervalBounds(t *testing.T) {
	iv := Interval{Predicted: 10, Margin: 2}
	if iv.Lo() != 6 || iv.Hi() != 14 {
		t.Fatalf("interval = [%v, %v]", iv.Lo(), iv.Hi())
	}
	if !iv.Contains(7) || iv.Contains(15) || iv.Contains(5) {
		t.Fatal("Contains misbehaves")
	}
	// Lo floors at zero.
	tiny := Interval{Predicted: 1, Margin: 5}
	if tiny.Lo() != 0 {
		t.Fatalf("Lo = %v", tiny.Lo())
	}
}

// intervalFixture fits a KW model on a seeded network split of the
// zoo-sample dataset and returns it with the held-out networks' measured
// kernel totals at the training batch.
func intervalFixture(t *testing.T) (*KWModel, map[string]units.Seconds) {
	t.Helper()
	train, test := buildSampleDataset(t, false).SplitByNetwork(0.3, 1)
	m, err := FitKW(train, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]units.Seconds{}
	for _, r := range test.Kernels {
		if r.BatchSize == 512 {
			measured[r.Network] += r.Seconds
		}
	}
	return m, measured
}

func TestPredictNetworkIntervalCoverage(t *testing.T) {
	// The measured kernel totals of held-out networks should mostly fall
	// inside ±2σ.
	m, measured := intervalFixture(t)
	nets := map[string]*dnn.Network{}
	for _, n := range zooSample() {
		nets[n.Name] = n
	}
	covered, total := 0, 0
	for _, name := range sortedStringKeys(measured) {
		iv, err := m.PredictNetworkInterval(nets[name], 512)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Margin <= 0 {
			t.Fatalf("%s: zero margin on noisy measurements", name)
		}
		if iv.Contains(measured[name]) {
			covered++
		}
		total++
	}
	t.Logf("coverage %d/%d", covered, total)
	if total == 0 || covered < total/2 {
		t.Fatalf("coverage %d/%d implausibly low", covered, total)
	}
}

func TestIntervalConsistentWithPointPrediction(t *testing.T) {
	m, err := FitKW(buildSampleDataset(t, false), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range zooSample() {
		for _, batch := range planFixtureBatches {
			iv, ivErr := m.PredictNetworkInterval(n, batch)
			pt, ptErr := m.PredictNetwork(n, batch)
			if (ivErr == nil) != (ptErr == nil) {
				t.Fatalf("%s@%d: interval err %v, point err %v", n.Name, batch, ivErr, ptErr)
			}
			if ivErr == nil && iv.Predicted != pt {
				t.Fatalf("%s@%d: interval center %v != point prediction %v", n.Name, batch, iv.Predicted, pt)
			}
		}
	}
}

// convStack returns a network of k identical shape-preserving 3×3
// convolutions, so every layer dispatches the same kernel names.
func convStack(k int) *dnn.Network {
	n := dnn.New("convstack", "test", dnn.TaskImageClassification, dnn.Shape{64, 56, 56})
	in := dnn.NetworkInput
	for i := 0; i < k; i++ {
		in = n.Conv(in, 64, 64, 3, 1, 1)
	}
	return n
}

func TestMarginGrowsWithRepeats(t *testing.T) {
	// Correlated aggregation: k repeats of the same kernel scale the margin
	// by k, not √k.
	m, err := FitKW(buildSampleDataset(t, false), "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	iv1, err := m.PredictNetworkInterval(convStack(1), 512)
	if err != nil {
		t.Fatal(err)
	}
	iv4, err := m.PredictNetworkInterval(convStack(4), 512)
	if err != nil {
		t.Fatal(err)
	}
	m1, m4 := iv1.Margin, iv4.Margin
	if m1 <= 0 {
		t.Fatal("zero single-layer margin")
	}
	if math.Abs(float64(m4-4*m1))/float64(4*m1) > 1e-9 {
		t.Fatalf("margin for 4 repeats = %v, want 4×%v", m4, m1)
	}
}
