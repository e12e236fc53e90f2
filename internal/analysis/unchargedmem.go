package analysis

import (
	"go/ast"
	"go/types"
)

// unchargedFact marks a function whose declaration carries
// "//lint:uncharged": a kernel-side accessor that touches simulated
// memory without permission checks or virtual-cycle charges (mem.Peek64
// and mem.Poke64 today). The defining package exports the fact;
// downstream packages may only reach such functions if they are
// themselves sanctioned via "//lint:allow unchargedmem <reason>" (the
// allocator, whose in-band metadata sweep is the one consumer the
// cycle-parity argument accounts for).
type unchargedFact struct{}

func (unchargedFact) AFact() {}

// UnchargedMem reports calls to uncharged kernel-side memory accessors
// from unsanctioned packages. Everything outside the sanctioned set
// must go through the charged Load/Store paths so cycle accounting
// stays exact — an uncharged read in a hot path would silently skew the
// cycle-parity oracle and the sustainability numbers derived from it.
var UnchargedMem = &Analyzer{
	Name: "unchargedmem",
	Doc: "restrict //lint:uncharged memory accessors (Peek64/Poke64) to the " +
		"defining package and packages sanctioned with //lint:allow unchargedmem",
	Run: runUnchargedMem,
}

func runUnchargedMem(pass *Pass) error {
	// Export the uncharged marks declared by this package, whether or
	// not the package itself is exempt from the use check.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && hasDirective(fd.Doc, "uncharged") {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					pass.ExportObjectFact(obj, unchargedFact{})
				}
			}
		}
	}
	if pass.Allowed() {
		return nil
	}
	//lint:detorder findings are sorted by the driver, so map order is harmless here
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			continue
		}
		if _, marked := pass.ObjectFact(fn, unchargedFact{}); !marked {
			continue
		}
		pass.Reportf(id.Pos(),
			"%s.%s is an uncharged kernel-side accessor: use the charged Load/Store "+
				"paths so cycle accounting stays exact, or sanction this package with "+
				"\"//lint:allow unchargedmem <reason>\"",
			fn.Pkg().Name(), fn.Name())
	}
	return nil
}

// hasDirective reports whether a comment group contains the exact
// "//lint:<verb>" directive.
func hasDirective(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if v, _, ok := parseDirective(c.Text); ok && v == verb {
			return true
		}
	}
	return false
}
