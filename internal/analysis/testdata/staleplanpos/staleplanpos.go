// Package staleplanpos holds true-positive fixtures for the staleplan
// analyzer: coefficient writes outside the blessed mutators.
package staleplanpos

// kernelWise mirrors the embedded predictor core and its resolved-line
// table.
type kernelWise struct {
	lines map[string]int
}

// KWModel mirrors the guarded model's coefficient fields.
type KWModel struct {
	Classif map[string]int
	Groups  []int
	kernelWise
}

// FitKW is blessed (Fit prefix); its writes are allowed.
func FitKW() *KWModel {
	m := &KWModel{}
	m.Classif = map[string]int{}
	return m
}

// tamper mutates a coefficient field from an unblessed function.
func tamper(m *KWModel) {
	m.Classif = nil
}

// SetGroups mutates through a method that is not a blessed mutator.
func (m *KWModel) SetGroups(gs []int) {
	m.Groups = gs
}

// seedFromAccumulators mimics a streaming-fit fold that bypasses the blessed
// chain (the fit-prefixed cores / rebuildFromAccumulators): still a
// violation.
func seedFromAccumulators(m *KWModel) {
	m.Groups = append(m.Groups, 1)
}

// patchLines writes the core's table through the embedding model.
func patchLines(m *KWModel) {
	m.lines = nil
}

// setLines writes the table on the core itself.
func (k *kernelWise) setLines(l map[string]int) {
	k.lines = l
}
