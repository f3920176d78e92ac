// Package staleplanneg holds true-negative fixtures for the staleplan
// analyzer: blessed mutators, non-coefficient fields and unguarded types.
package staleplanneg

// kernelWise mirrors the embedded predictor core.
type kernelWise struct {
	lines map[string]int
}

// KWModel mirrors the guarded model.
type KWModel struct {
	Classif  map[string]int
	Training string
	kernelWise
}

// FitKW is blessed by the Fit prefix.
func FitKW() *KWModel {
	m := &KWModel{}
	m.Classif = map[string]int{}
	return m
}

// ObserveRecords is blessed by exact name.
func (m *KWModel) ObserveRecords() {
	m.Classif = nil
}

// rebuildFromAccumulators is blessed by exact name; it rebuilds the core's
// table too.
func (m *KWModel) rebuildFromAccumulators() {
	m.Classif = map[string]int{}
	m.lines = map[string]int{}
}

// load builds a fresh model, table included, with a composite literal: a
// new model has no cache to go stale.
func load() *KWModel {
	return &KWModel{kernelWise: kernelWise{lines: map[string]int{}}}
}

// SetTraining writes a non-coefficient field: no plan depends on it.
func (m *KWModel) SetTraining(s string) {
	m.Training = s
}

// OtherModel shares a field name but is not a guarded type.
type OtherModel struct{ Classif int }

// set writes the unguarded type freely.
func set(o *OtherModel) {
	o.Classif = 1
}

// fitKWRecords is blessed by the lowercase fit prefix, the naming of
// unexported fitting helpers.
func fitKWRecords(m *KWModel) {
	m.Classif = map[string]int{}
}
