package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/gpu"
	"repro/internal/regression"
)

// Model persistence. The paper's workflow (Figure 10) explicitly separates
// training from prediction: "the performance analytical model and its
// parameters can be distributed to users". This file serializes trained
// models as JSON so a model trained where the measurements live can be
// shipped to users who only have network structures.
//
// The envelope carries a kind tag and a format version; unknown kinds and
// newer versions are rejected with descriptive errors.

// persistVersion is the current serialization format version.
const persistVersion = 1

// envelope wraps any serialized model.
type envelope struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	Model   json.RawMessage `json:"model"`
}

// Model kinds in envelopes.
const (
	kindE2E  = "e2e"
	kindLW   = "lw"
	kindKW   = "kw"
	kindIGKW = "igkw"
)

// kwModelJSON mirrors KWModel's exported state (the unexported online state
// is rebuilt lazily on first ObserveRecords).
type kwModelJSON struct {
	GPU           string                     `json:"gpu"`
	TrainBatch    int                        `json:"train_batch"`
	Classif       map[string]Classification  `json:"classification"`
	Groups        []Group                    `json:"groups"`
	GroupOf       map[string]int             `json:"group_of"`
	Mapping       map[string][]string        `json:"mapping"`
	Families      map[string]Classification  `json:"families"`
	ClassFallback map[Driver]regression.Line `json:"class_fallback"`
	Training      bool                       `json:"training"`
}

// igkwModelJSON is IGKWModel's serialized form: the resolved-line table
// as parallel line and driver maps per tier.
type igkwModelJSON struct {
	TrainGPUs     []string                   `json:"train_gpus"`
	Target        gpu.Spec                   `json:"target"`
	TrainBatch    int                        `json:"train_batch"`
	Lines         map[string]regression.Line `json:"lines"`
	DriverOf      map[string]Driver          `json:"driver_of"`
	Mapping       map[string][]string        `json:"mapping"`
	FamilyLines   map[string]regression.Line `json:"family_lines"`
	FamilyDriver  map[string]Driver          `json:"family_driver"`
	ClassFallback map[Driver]regression.Line `json:"class_fallback"`
}

// Save serializes a trained model (E2E, LW, KW or IGKW) to w.
func Save(w io.Writer, model Predictor) error {
	var kind string
	var payload interface{}
	switch m := model.(type) {
	case *E2EModel:
		kind, payload = kindE2E, m
	case *LWModel:
		kind, payload = kindLW, m
	case *KWModel:
		kind, payload = kindKW, kwModelJSON{
			GPU: m.GPU, TrainBatch: m.TrainBatch, Classif: m.Classif,
			Groups: m.Groups, GroupOf: m.GroupOf, Mapping: m.Mapping,
			Families: m.Families, ClassFallback: m.ClassFallback,
			Training: m.Training,
		}
	case *IGKWModel:
		j := igkwModelJSON{
			TrainGPUs: m.TrainGPUs, Target: m.Target, TrainBatch: m.TrainBatch,
			Mapping: m.Mapping, ClassFallback: m.lines.classes,
		}
		j.Lines, j.DriverOf = splitLines(m.lines.kernels)
		j.FamilyLines, j.FamilyDriver = splitLines(m.lines.families)
		kind, payload = kindIGKW, j
	default:
		return fmt.Errorf("core: cannot serialize model type %T", model)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("core: serialize %s model: %w", kind, err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{Kind: kind, Version: persistVersion, Model: raw})
}

// Load deserializes a model previously written by Save. The concrete type is
// recovered from the envelope's kind tag.
func Load(r io.Reader) (Predictor, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if env.Version > persistVersion {
		return nil, fmt.Errorf("core: model format version %d is newer than supported %d",
			env.Version, persistVersion)
	}
	switch env.Kind {
	case kindE2E:
		m := &E2EModel{}
		if err := json.Unmarshal(env.Model, m); err != nil {
			return nil, fmt.Errorf("core: load E2E model: %w", err)
		}
		return m, nil
	case kindLW:
		m := &LWModel{}
		if err := json.Unmarshal(env.Model, m); err != nil {
			return nil, fmt.Errorf("core: load LW model: %w", err)
		}
		return m, nil
	case kindKW:
		var j kwModelJSON
		if err := json.Unmarshal(env.Model, &j); err != nil {
			return nil, fmt.Errorf("core: load KW model: %w", err)
		}
		for _, name := range sortedStringKeys(j.GroupOf) {
			if gi := j.GroupOf[name]; gi < 0 || gi >= len(j.Groups) {
				return nil, fmt.Errorf("core: load KW model: kernel %q maps to group %d of %d", name, gi, len(j.Groups))
			}
		}
		return &KWModel{
			GPU: j.GPU, TrainBatch: j.TrainBatch, Classif: j.Classif,
			Groups: j.Groups, GroupOf: j.GroupOf,
			Families: j.Families, ClassFallback: j.ClassFallback,
			kernelWise: kernelWise{
				Mapping: j.Mapping, Training: j.Training, gpu: j.GPU,
				lines: kwLines(j.Groups, j.GroupOf, j.Families, j.ClassFallback),
			},
		}, nil
	case kindIGKW:
		var j igkwModelJSON
		if err := json.Unmarshal(env.Model, &j); err != nil {
			return nil, fmt.Errorf("core: load IGKW model: %w", err)
		}
		return &IGKWModel{
			TrainGPUs: j.TrainGPUs, Target: j.Target, TrainBatch: j.TrainBatch,
			kernelWise: kernelWise{
				Mapping: j.Mapping, gpu: j.Target.Name, kind: kindIGKWModel,
				lines: lineTable{
					kernels:  joinLines(j.Lines, j.DriverOf),
					families: joinLines(j.FamilyLines, j.FamilyDriver),
					classes:  j.ClassFallback,
				},
			},
		}, nil
	}
	return nil, fmt.Errorf("core: unknown model kind %q", env.Kind)
}

// splitLines converts resolved table entries to the envelope's parallel
// line and driver maps.
func splitLines(in map[string]kernelLine) (map[string]regression.Line, map[string]Driver) {
	lines := make(map[string]regression.Line, len(in))
	drivers := make(map[string]Driver, len(in))
	for name, kl := range in {
		lines[name], drivers[name] = kl.line, kl.driver
	}
	return lines, drivers
}

// joinLines is splitLines' inverse.
func joinLines(lines map[string]regression.Line, drivers map[string]Driver) map[string]kernelLine {
	out := make(map[string]kernelLine, len(lines))
	for name, line := range lines {
		out[name] = kernelLine{line: line, driver: drivers[name]}
	}
	return out
}

// SaveFile writes a model to path.
func SaveFile(path string, model Predictor) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := Save(f, model); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return Load(f)
}
