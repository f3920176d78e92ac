package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/gpu"
)

// TestCaseStudyRenderGolden pins the rendered Figure 17 and Uncertainty
// tables on the quick lab. The digests were recorded while both read their
// per-layer times and intervals from evaluators of their own rather than the
// compiled plan.
func TestCaseStudyRenderGolden(t *testing.T) {
	l := quickLab(t)
	f17, err := Figure17(l)
	if err != nil {
		t.Fatal(err)
	}
	unc, err := Uncertainty(l, gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, render, want string }{
		{"Figure17", f17.Render(), "d8cecd3d055713744aae83ce45a502c1e537afb30ad17a71fb66b5affe25cb2f"},
		{"Uncertainty", unc.Render(), "446d48fa4350f57984ada7675e8d56fd492430715a42cb690328a3e2a4a8ca85"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.render))); got != c.want {
			t.Errorf("%s render digest %s, want %s:\n%s", c.name, got, c.want, c.render)
		}
	}
}
