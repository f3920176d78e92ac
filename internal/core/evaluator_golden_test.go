package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

// evaluatorDigests pin the kernel-wise evaluators other than the
// whole-network total: for every zoo-sample network at every fixture batch,
// the Predicted and Margin bits of PredictNetworkInterval and the bits of
// every per-layer time. They were recorded while per-layer times and
// intervals still had evaluators of their own, so they pin that the compiled
// plan reproduces both bit for bit.
var evaluatorDigests = map[string]string{
	"inference": "dc6b85011cc014cbed1e24fdc0a1853a643e05ef15e430dfa2dcdf5681285709",
	"training":  "c952c4297a872799cbcaba0973354a8b28780cf0201e38b07a1659e676a9d398",
}

func TestKWEvaluatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	for _, name := range sortedStringKeys(evaluatorDigests) {
		training := name == "training"
		kw, err := FitKWOptions(buildSampleDataset(t, training), "A100", 512, KWOptions{Training: training})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, n := range zooSample() {
			for _, batch := range planFixtureBatches {
				fmt.Fprintf(h, "%s@%d interval", n.Name, batch)
				if iv, err := kw.PredictNetworkInterval(n, batch); err != nil {
					fmt.Fprint(h, " error")
				} else {
					fmt.Fprintf(h, " %x %x", math.Float64bits(float64(iv.Predicted)), math.Float64bits(float64(iv.Margin)))
				}
				fmt.Fprint(h, "\nlayers")
				if times, err := kw.PredictLayers(n, batch); err != nil {
					fmt.Fprint(h, " error")
				} else {
					for _, v := range times {
						fmt.Fprintf(h, " %x", math.Float64bits(float64(v)))
					}
				}
				fmt.Fprint(h, "\n")
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != evaluatorDigests[name] {
			t.Errorf("%s evaluator digest %s, want %s", name, got, evaluatorDigests[name])
		}
	}
}
