package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Staleplan guards the coherence between fitted models and their compiled
// prediction plans. KWModel and IGKWModel embed one kernel-wise core
// (kernelWise) that caches compiled Plans keyed on the current resolved-line
// table; the blessed mutators (Fit*, ObserveRecords and the rebuild helpers
// they call) rebuild the table and invalidate those caches after every
// coefficient change. A write to a coefficient field from anywhere else
// silently leaves stale plans serving predictions from the old
// coefficients.
//
// Constructing a fresh model with a composite literal is fine — a new model
// has no cache to go stale. Only selector assignments into an existing
// model are checked.
type Staleplan struct{}

// NewStaleplan returns the analyzer.
func NewStaleplan() *Staleplan { return &Staleplan{} }

// Name implements Analyzer.
func (*Staleplan) Name() string { return "staleplan" }

// Doc implements Analyzer.
func (*Staleplan) Doc() string {
	return "model coefficient mutation outside the blessed mutators (stale compiled plans)"
}

// coefficientFields lists, per guarded type, the fields that feed compiled
// plans: the core's mapping and resolved-line table (written through the
// embedding models too) and the KW coefficients the table derives from.
var coefficientFields = map[string]map[string]bool{
	"kernelWise": {"Mapping": true, "lines": true},
	"KWModel": {
		"Classif": true, "Groups": true, "GroupOf": true, "Mapping": true,
		"Families": true, "ClassFallback": true, "lines": true,
	},
	"IGKWModel": {"Mapping": true, "lines": true},
}

// blessedName matches functions allowed to mutate coefficients: the fitting
// entry points and the online-update rebuild chain.
var blessedName = regexp.MustCompile(`^(Fit|fit)`)

// blessedExact are additional allowed mutators by exact name: the online
// observation fold and the rebuild chain it triggers (ObserveRecords →
// rebuildFromAccumulators), plus the fit-time seeding of the online state.
var blessedExact = map[string]bool{
	"ObserveRecords":          true,
	"initOnline":              true,
	"rebuildFromAccumulators": true,
}

// Run implements Analyzer.
func (a *Staleplan) Run(p *Pass) []Finding {
	var findings []Finding
	for _, fd := range funcDecls(p) {
		name := fd.Name.Name
		if blessedName.MatchString(name) || blessedExact[name] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				model := guardedModelName(p, sel.X)
				if model == "" || !coefficientFields[model][sel.Sel.Name] {
					continue
				}
				reportf(p, &findings, a.Name(), as,
					"%s.%s assigned outside the blessed mutators (Fit*, ObserveRecords, rebuildFromAccumulators); compiled plans are not invalidated and will serve stale coefficients",
					model, sel.Sel.Name)
			}
			return true
		})
	}
	return findings
}

// guardedModelName returns the guarded type's name ("KWModel", "IGKWModel"
// or "kernelWise") when expr's type (after pointer indirection) is one, else
// "".
func guardedModelName(p *Pass, expr ast.Expr) string {
	tv, ok := p.Info.Types[expr]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if name := named.Obj().Name(); coefficientFields[name] != nil {
		return name
	}
	return ""
}
