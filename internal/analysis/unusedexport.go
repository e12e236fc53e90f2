package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnusedExport reports exported identifiers of internal packages that no
// non-test file in the module references. An internal package has no
// users outside the module, so an export only its own tests call is
// code kept alive for nobody: delete it, or say on the declaration why
// it stays ("//lint:unusedexport <reason>").
//
// A method also counts as used when its type satisfies an interface
// that has a method of that name, or when a public package re-exports
// its type as an alias (sdrad.Ctx = core.DomainCtx): such methods are
// called through the interface or by the module's importers.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc: "report exported identifiers under internal/ that no non-test " +
		"file in the module references",
	Run: runUnusedExport,
}

func runUnusedExport(pass *Pass) error {
	if pass.Allowed() || !isInternal(pass.Pkg.Path()) {
		return nil
	}
	used := make(map[types.Object]bool)
	for _, pkg := range pass.Universe.Pkgs {
		//lint:detorder only fills a set, so map order is harmless here
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() != pass.Pkg {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			used[obj] = true
		}
	}
	reexported := reexportedTypes(pass)
	var ifaces []*types.Interface // collected on the first method that needs them
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !used[obj] {
			pass.Reportf(obj.Pos(), "exported %s %s has no non-test reference in the module", kindOf(obj), name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || reexported[tn] {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for m := range named.Methods() {
			if !m.Exported() || used[m] {
				continue
			}
			if ifaces == nil {
				ifaces = universeInterfaces(pass.Universe)
			}
			if !satisfiesInterface(named, m.Name(), ifaces) {
				pass.Reportf(m.Pos(), "exported method %s.%s has no non-test reference in the module", name, m.Name())
			}
		}
	}
	return nil
}

// isInternal reports whether path has an "internal" element.
func isInternal(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// reexportedTypes returns the pass's types that a public (non-internal,
// non-main) package of the universe names in a type alias.
func reexportedTypes(pass *Pass) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, pkg := range pass.Universe.Pkgs {
		if pkg.Types.Name() == "main" || isInternal(pkg.Path) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !tn.IsAlias() {
				continue
			}
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && named.Obj().Pkg() == pass.Pkg {
				out[named.Origin().Obj()] = true
			}
		}
	}
	return out
}

// universeInterfaces collects every interface a method could be called
// through: the interface types written in the universe's source and the
// named interfaces of every package it imports, error included.
func universeInterfaces(u *Universe) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var imported func(p *types.Package)
	imported = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			imported(imp)
		}
		if u.InModule(p.Path()) {
			return // its interfaces are found in its source below
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, pkg := range u.Pkgs {
		imported(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := pkg.Info.TypeOf(it).(*types.Interface); ok {
						ifaces = append(ifaces, t)
					}
				}
				return true
			})
		}
	}
	return ifaces
}

// satisfiesInterface reports whether named or its pointer implements an
// interface that has a method called method.
func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if hasMethod(it, method) && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for m := range it.Methods() {
		if m.Name() == name {
			return true
		}
	}
	return false
}
