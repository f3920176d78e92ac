package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/gpu"
	"repro/internal/units"
	"repro/internal/zoo"
)

// roundTrip saves and reloads a model through the JSON envelope.
func roundTrip(t *testing.T, m Predictor) Predictor {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// samePrediction asserts two predictors agree on a reference network.
func samePrediction(t *testing.T, a, b Predictor) {
	t.Helper()
	net := zoo.MustResNet(18)
	pa, err := a.PredictNetwork(net, 64)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictNetwork(net, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pa-pb)) > 1e-15*math.Abs(float64(pa)) {
		t.Fatalf("predictions diverge after round trip: %v vs %v", pa, pb)
	}
}

func TestSaveLoadE2E(t *testing.T) {
	ds := syntheticE2EDataset("A100", 2e-12, 5e-3)
	m, err := FitE2E(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.Name() != "E2E" || back.GPUName() != "A100" {
		t.Fatal("identity lost")
	}
	samePrediction(t, m, back)
}

func TestSaveLoadKW(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m).(*KWModel)
	samePrediction(t, m, back)
	if back.KernelCount() != m.KernelCount() || back.ModelCount() != m.ModelCount() {
		t.Fatal("model structure lost")
	}
	// The reloaded model must still accept streaming updates (online state
	// rebuilds lazily).
	recs := plantRecords("streamed_kernel", DriverInput, 1e-9, 1e-6, MinKernelObservations, 77)
	if _, created := back.ObserveRecords(recs); created != 1 {
		t.Fatal("reloaded model cannot learn online")
	}
}

func TestSaveLoadIGKW(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	ds.Merge(plantKernelDataset(gpu.A40, 4))
	ds.Merge(plantKernelDataset(gpu.GTX1080Ti, 4))
	m, err := FitIGKW(ds, []gpu.Spec{gpu.A100, gpu.A40, gpu.GTX1080Ti}, gpu.TitanRTX, 512)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if back.GPUName() != "TITAN RTX" {
		t.Fatalf("target lost: %q", back.GPUName())
	}
	samePrediction(t, m, back)
}

func TestSaveLoadLW(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	// Synthesize layer records from the kernel records.
	for _, r := range ds.Kernels {
		ds.Layers = append(ds.Layers, layerFromKernel(r))
	}
	m, err := FitLW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	samePrediction(t, m, roundTrip(t, m))
}

func TestSaveLoadFile(t *testing.T) {
	ds := plantKernelDataset(gpu.A100, 4)
	m, err := FitKW(ds, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kw.json")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samePrediction(t, m, back)
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should error")
	}
	if _, err := Load(strings.NewReader(`{"kind":"mystery","version":1,"model":{}}`)); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := Load(strings.NewReader(`{"kind":"kw","version":99,"model":{}}`)); err == nil {
		t.Fatal("future version should error")
	}
}

func TestSaveUnsupportedType(t *testing.T) {
	if err := Save(&bytes.Buffer{}, unsupportedPredictor{}); err == nil {
		t.Fatal("unsupported type should error")
	}
}

// unsupportedPredictor exercises Save's type guard.
type unsupportedPredictor struct{}

func (unsupportedPredictor) Name() string    { return "x" }
func (unsupportedPredictor) GPUName() string { return "x" }
func (unsupportedPredictor) PredictNetwork(*dnn.Network, int) (units.Seconds, error) {
	return 0, nil
}

// layerFromKernel synthesizes a layer record matching a kernel record.
func layerFromKernel(r dataset.KernelRecord) dataset.LayerRecord {
	return dataset.LayerRecord{
		Network: r.Network, GPU: r.GPU, BatchSize: r.BatchSize,
		LayerIndex: r.LayerIndex, Kind: r.LayerKind,
		FLOPs: r.LayerFLOPs, InputElems: r.LayerInputElems,
		OutputElems: r.LayerOutputElems, Seconds: r.Seconds,
	}
}

// TestLoadSavedModelFiles loads a KW and an IGKW model file written by an
// earlier release of Save (testdata/, with the predictions that release
// made for them) and checks that both prediction paths reproduce those
// predictions bit for bit and that re-saving reproduces the files byte for
// byte.
func TestLoadSavedModelFiles(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "model_predictions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]Predictor{}
	for _, kind := range []string{"kw", "igkw"} {
		path := filepath.Join("testdata", kind+"_model.json")
		m, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		models[kind] = m
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: re-saved model differs from %s", kind, path)
		}
	}
	nets := map[string]*dnn.Network{}
	for _, n := range zooSample() {
		nets[n.Name] = n
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, line := range lines {
		var kind, name string
		var batch int
		var bits uint64
		if _, err := fmt.Sscanf(line, "%s %s %d %x", &kind, &name, &batch, &bits); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		n, ok := nets[name]
		if !ok {
			t.Fatalf("%s is not in the zoo sample", name)
		}
		m := models[kind].(interface {
			PredictNetwork(*dnn.Network, int) (units.Seconds, error)
			PredictNetworkUncached(*dnn.Network, int) (units.Seconds, error)
		})
		for path, predict := range map[string]func(*dnn.Network, int) (units.Seconds, error){
			"plan": m.PredictNetwork, "uncached": m.PredictNetworkUncached,
		} {
			got, err := predict(n, batch)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(float64(got)) != bits {
				t.Errorf("%s %s@%d (%s): %v, saved model predicted %v",
					kind, name, batch, path, got, math.Float64frombits(bits))
			}
		}
	}
	if len(lines) == 0 {
		t.Fatal("no recorded predictions")
	}
}

// TestLoadRejectsGroupIndexOutOfRange feeds KW envelopes whose group_of
// points outside the groups slice: Load must return an error, not panic.
func TestLoadRejectsGroupIndexOutOfRange(t *testing.T) {
	for _, gi := range []string{"3", "-1"} {
		env := `{"kind":"kw","version":1,"model":{"groups":[],"group_of":{"k":` + gi + `}}}`
		if _, err := Load(strings.NewReader(env)); err == nil {
			t.Errorf("group_of index %s: Load accepted the envelope", gi)
		}
	}
}
