package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzFamilyOf checks the kernel-family extraction on arbitrary names: it
// must never panic, the family is always a prefix of the name, and family
// extraction is idempotent.
func FuzzFamilyOf(f *testing.F) {
	f.Add("winograd_gemm_128x64")
	f.Add("depthwise_conv_k3_s2")
	f.Add("")
	f.Add("___")
	f.Add("123")
	f.Add("a_1_b_2")
	f.Fuzz(func(t *testing.T, name string) {
		fam := FamilyOf(name)
		if !strings.HasPrefix(name, fam) {
			t.Fatalf("FamilyOf(%q) = %q is not a prefix", name, fam)
		}
		if again := FamilyOf(fam); again != fam {
			t.Fatalf("FamilyOf not idempotent: %q → %q → %q", name, fam, again)
		}
	})
}

// FuzzLoad feeds arbitrary bytes to the model-envelope decoder, seeded with
// the saved KW and IGKW model files: Load must never panic, and any
// envelope it accepts must re-Save to bytes that load again and re-Save
// unchanged.
func FuzzLoad(f *testing.F) {
	for _, name := range []string{"kw_model.json", "igkw_model.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"kind":"kw","version":1,"model":{"groups":[],"group_of":{"k":3}}}`))
	f.Add([]byte(`{"kind":"lw","version":1,"model":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Save(&first, m); err != nil {
			t.Fatalf("loaded %s model does not save: %v", m.Name(), err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-saved %s model does not load: %v", m.Name(), err)
		}
		var second bytes.Buffer
		if err := Save(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s model changed across a save/load round trip:\n%s\nvs\n%s", m.Name(), first.Bytes(), second.Bytes())
		}
	})
}
