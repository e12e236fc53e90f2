package analysis

import "go/types"

// wallForbidden is the set of time-package functions that read the wall
// clock. Library code reaching any of them breaks virtual-time
// determinism: two runs with the same seed would charge different
// cycles, and the campaign engine's byte-identical-trace oracle dies.
var wallForbidden = map[string]bool{"Now": true, "Since": true, "Until": true}

// Wallclock reports any reference to time.Now, time.Since, or
// time.Until in library code. It is the type-aware port of the old
// string/AST guardrail: because it keys on the resolved *types.Func
// rather than the selector text, aliased imports (tm "time"),
// dot-imports, and function-value indirection (f := time.Now; f())
// cannot dodge it, and a local package named "time" cannot false-
// positive it.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now/Since/Until) in library code; " +
		"virtual time must be the only clock",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if pass.Allowed() {
		return nil
	}
	//lint:detorder findings are sorted by the driver, so map order is harmless here
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallForbidden[fn.Name()] {
			continue
		}
		pass.Reportf(id.Pos(),
			"reference to time.%s in library code breaks virtual-time determinism "+
				"(route through internal/vclock, or exempt the package with \"//lint:allow wallclock <reason>\")",
			fn.Name())
	}
	return nil
}
