package analysis

import (
	"go/types"
	"strconv"
	"strings"
)

// linkBoundary is the servedlinks policy, whole: the binaries that
// serve traffic, and the test machinery no package they link may
// import. Patterns are module-relative import paths; "/..." also
// covers the subtree. internal/fault stays allowed: its bug classes
// are the served system's attack model, injected on marked requests.
var linkBoundary = struct{ served, forbidden []string }{
	served:    []string{"cmd/sdrad-kvd", "cmd/sdrad-httpd", "cmd/sdrad-cluster"},
	forbidden: []string{"internal/campaign/...", "internal/attackgen", "internal/exp"},
}

// ServedLinks reports an import of the campaign engine, the attack
// generator or the experiment harness by any package a serving binary
// links. The engine imports the servers it tests, never the reverse.
// Packages no serving binary links are not checked, and the table above
// is the only exception list: no package-wide allow applies.
var ServedLinks = &Analyzer{
	Name: "servedlinks",
	Doc: "forbid imports of internal/campaign, internal/attackgen and internal/exp " +
		"by any package cmd/sdrad-kvd, cmd/sdrad-httpd or cmd/sdrad-cluster links",
	Run: runServedLinks,
}

func runServedLinks(pass *Pass) error {
	bin := servingBinary(pass)
	if bin == "" {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && pass.InModule(path) && matchesAny(path, linkBoundary.forbidden) {
				pass.Reportf(imp.Pos(), "%s imports %s, test machinery, and the serving binary %s links it",
					pass.Pkg.Path(), path, bin)
			}
		}
	}
	return nil
}

// servingBinary returns the import path of a serving binary that links
// the pass's package, or "" if none does.
func servingBinary(pass *Pass) string {
	for _, pkg := range pass.Universe.Pkgs {
		if pkg.Types.Name() == "main" && matchesAny(pkg.Path, linkBoundary.served) &&
			links(pkg.Types, pass.Pkg, make(map[*types.Package]bool)) {
			return pkg.Path
		}
	}
	return ""
}

// links reports whether from is target or imports it, directly or not.
func links(from, target *types.Package, seen map[*types.Package]bool) bool {
	if from == target {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for _, imp := range from.Imports() {
		if links(imp, target, seen) {
			return true
		}
	}
	return false
}

// matchesAny reports whether the import path ends in one of the
// patterns' paths ("repro/internal/exp" matches "internal/exp"), or
// lies under one that ends in "/...".
func matchesAny(path string, patterns []string) bool {
	for _, pattern := range patterns {
		base, tree := strings.CutSuffix(pattern, "/...")
		if path == base || strings.HasSuffix(path, "/"+base) ||
			tree && (strings.HasPrefix(path, base+"/") || strings.Contains(path, "/"+base+"/")) {
			return true
		}
	}
	return false
}
