package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/zoo"
)

// The golden determinism contract: building the dataset, fitting the KW
// model, folding an online update, serializing the model and compiling a
// prediction plan must produce byte-identical artifacts regardless of
// GOMAXPROCS. This is the end-to-end guarantee the detrange invariant
// (sorted map iteration around float folds) exists to protect — if any
// fitting path ranged a map while accumulating, these bytes would differ
// between runs and across parallelism levels.

// goldenArtifacts runs the full pipeline at the given parallelism and
// returns the serialized model bytes and an exact textual dump of the
// compiled plan.
func goldenArtifacts(t *testing.T, procs int) (model, plan []byte) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	ds := buildSampleDataset(t, false)

	// Split the kernel records: fit on the bulk, stream the tail through
	// ObserveRecords so the online rebuild path is part of the contract.
	cut := len(ds.Kernels) * 3 / 4
	head := &dataset.Dataset{Networks: ds.Networks, Layers: ds.Layers, Kernels: ds.Kernels[:cut]}
	m, err := FitKW(head, "A100", 512)
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveRecords(ds.Kernels[cut:])

	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}

	net := zoo.MustResNet(18)
	p, err := m.CompilePlan(net)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dumpPlan(p)
}

// dumpPlan renders every segment of a compiled plan with exact (hexadecimal
// float) coefficient bits, so two dumps are equal iff the plans are
// bit-identical.
func dumpPlan(p *Plan) []byte {
	var out bytes.Buffer
	out.WriteString(p.Network)
	out.WriteByte(' ')
	out.WriteString(p.GPU)
	out.WriteByte('\n')
	for i, end := range p.entryEnd {
		start := int32(0)
		if i > 0 {
			start = p.entryEnd[i-1]
		}
		for _, seg := range p.segs[start:end] {
			out.WriteString(strconv.Itoa(seg.minBatch))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatInt(seg.xPer, 10))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatInt(seg.xConst, 10))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatFloat(seg.line.Slope, 'x', -1, 64))
			out.WriteByte(' ')
			out.WriteString(strconv.FormatFloat(seg.line.Intercept, 'x', -1, 64))
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestGoldenDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	model1, plan1 := goldenArtifacts(t, 1)
	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4
	}
	model2, plan2 := goldenArtifacts(t, procs)

	if !bytes.Equal(model1, model2) {
		t.Errorf("serialized model differs between GOMAXPROCS=1 and GOMAXPROCS=%d (%d vs %d bytes)",
			procs, len(model1), len(model2))
	}
	if !bytes.Equal(plan1, plan2) {
		t.Errorf("compiled plan differs between GOMAXPROCS=1 and GOMAXPROCS=%d:\n%s\nvs\n%s",
			procs, plan1, plan2)
	}
	if len(plan1) == 0 || bytes.Count(plan1, []byte{'\n'}) < 2 {
		t.Fatalf("plan dump implausibly small: %q", plan1)
	}

	// Same process, same GOMAXPROCS, fresh run: still identical (guards
	// against map-order luck making the first comparison pass).
	model3, plan3 := goldenArtifacts(t, procs)
	if !bytes.Equal(model2, model3) {
		t.Error("serialized model differs between identical runs")
	}
	if !bytes.Equal(plan2, plan3) {
		t.Error("compiled plan differs between identical runs")
	}
}

// fitDigests pins the fitted coefficients of every model family: the
// SHA-256 of the Save bytes of KW, LW and E2E fitted on the A100 zoo-sample
// cell and of IGKW trained on A100 + V100 and resolved for TITAN RTX. The
// values were recorded while a second, streaming fitting path still existed
// and was tested bit-equal to the record path, so they pin that the one
// remaining path still produces the same bits. The KW ablation options and
// an online update (fit on the first 3/4 of the kernel records, observe the
// rest) are pinned the same way.
var fitDigests = map[string]string{
	"KW":                 "f15642b3a8cbbd5070509f9680031e4831301a2858d295f6de302545ccb1ce39",
	"LW":                 "78ed6315ae62c38b1f3add16b9de75ba09d808d6825abfbfc884c025479ceca8",
	"E2E":                "f77dc6b4097646c5956b48d08aad941a538c81e9e615093f60a1f5a4f22b388e",
	"IGKW":               "ed492ee4289803292fe032347a71a2e224cc99c996d1c4e3147d6e28a0eb1a07",
	"KW/force-operation": "06eb5189538dc832930fadfedb5d39581ffa2ac548a642e0581eaab11a9b688f",
	"KW/no-grouping":     "ff29ce31016fa16a161c32e6baa2a505b9c32d7fe640077528d99d4475d9d406",
	"KW/no-family":       "2ac844ec90334dd2f029a53a7be5538f5f2540778a0eca1963fb4ed002c70044",
	"KW/online":          "3607f9f9143076b1cb8adae11e006a864347260f6469a71f47269030f4aedabf",
}

// fitDigestsAt collects the zoo sample with the given collection worker
// count and returns the SHA-256 of each fitted model's Save bytes.
func fitDigestsAt(t *testing.T, workers int) map[string]string {
	t.Helper()
	opt := dataset.DefaultBuildOptions()
	opt.Batches = 8
	opt.Warmup = 2
	opt.Workers = workers
	train := []gpu.Spec{gpu.A100, gpu.V100}
	ds, _, err := dataset.Build(zooSample(), train, opt)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]func() (Predictor, error){
		"KW":   func() (Predictor, error) { return FitKW(ds, "A100", 512) },
		"LW":   func() (Predictor, error) { return FitLW(ds, "A100", 512) },
		"E2E":  func() (Predictor, error) { return FitE2E(ds, "A100", 512) },
		"IGKW": func() (Predictor, error) { return FitIGKW(ds, train, gpu.TitanRTX, 512) },
		"KW/force-operation": func() (Predictor, error) {
			return FitKWOptions(ds, "A100", 512, KWOptions{ForceDriver: DriverOperation})
		},
		"KW/no-grouping": func() (Predictor, error) {
			return FitKWOptions(ds, "A100", 512, KWOptions{DisableGrouping: true})
		},
		"KW/no-family": func() (Predictor, error) {
			return FitKWOptions(ds, "A100", 512, KWOptions{DisableFamilyFallback: true})
		},
		"KW/online": func() (Predictor, error) {
			// Fit on the head of the A100 kernel records, observe the tail.
			a100 := ds.FilterGPU("A100")
			cut := len(a100.Kernels) * 3 / 4
			m, err := FitKW(&dataset.Dataset{Kernels: a100.Kernels[:cut]}, "A100", 512)
			if err == nil {
				m.ObserveRecords(a100.Kernels[cut:])
			}
			return m, err
		},
	}
	out := map[string]string{}
	for name, fit := range models {
		m, err := fit()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		out[name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	return out
}

// TestFitDigestGolden checks the recorded fit digests with one collection
// worker and with GOMAXPROCS workers.
func TestFitDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 4
	}
	for _, workers := range []int{1, procs} {
		got := fitDigestsAt(t, workers)
		for _, name := range sortedStringKeys(fitDigests) {
			if got[name] != fitDigests[name] {
				t.Errorf("Workers=%d: %s fit digest %s, want %s", workers, name, got[name], fitDigests[name])
			}
		}
	}
}
