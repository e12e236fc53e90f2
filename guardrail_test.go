// Guardrail tests: repo-wide invariants enforced by running the
// sdradlint analyzers (internal/analysis) over the whole module. These
// replace the single-purpose AST walkers that used to live here. The
// analyzers are type-aware — aliased imports, dot-imports, and
// function-value indirection cannot dodge the wall-clock ban — and
// their exemptions travel as //lint:allow package directives instead of
// path lists, so moving a package never silently changes coverage.
// TestSeededViolationsAreCaught keeps the zero-findings assertions from
// rotting into vacuous passes.
package sdrad_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	lintOnce sync.Once
	lintU    *analysis.Universe
	lintErr  error
)

// moduleUniverse loads and type-checks every module package once for
// all guardrail tests.
func moduleUniverse(t *testing.T) *analysis.Universe {
	t.Helper()
	lintOnce.Do(func() { lintU, lintErr = analysis.LoadPackages(".", "./...") })
	if lintErr != nil {
		t.Fatalf("loading module packages: %v", lintErr)
	}
	return lintU
}

// expectClean runs one analyzer over the module and reports every
// finding as a failure.
func expectClean(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	findings, err := analysis.Run([]*analysis.Analyzer{a}, moduleUniverse(t))
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// TestNoWallClockInLibraryCode asserts no library package reads the
// wall clock: virtual time must be the only clock, or same-seed runs
// stop producing byte-identical traces. The only exemptions are the
// packages carrying a "//lint:allow wallclock <reason>" directive
// (internal/vclock's deadline conversion and the benchmark harness).
func TestNoWallClockInLibraryCode(t *testing.T) {
	expectClean(t, analysis.Wallclock)
}

// TestExportedSymbolsDocumented asserts every exported symbol of the
// publicly importable packages carries a doc comment.
func TestExportedSymbolsDocumented(t *testing.T) {
	expectClean(t, analysis.DocExport)
}

// TestUnchargedAccessorsContained asserts the uncharged Peek64/Poke64
// accessors are reached only from their defining package and the
// sanctioned allocator sweep, keeping cycle accounting exact.
func TestUnchargedAccessorsContained(t *testing.T) {
	expectClean(t, analysis.UnchargedMem)
}

// TestNoUnusedInternalExports asserts every exported identifier under
// internal/ has a non-test user in the module (cmd/, examples/ and
// benchmark/ count), so an export kept alive only by its own tests
// cannot accumulate.
func TestNoUnusedInternalExports(t *testing.T) {
	expectClean(t, analysis.UnusedExport)
}

// TestSeededViolationsAreCaught writes a deliberately violating package
// to a temporary fixture tree and asserts each module-gating analyzer
// still flags it: proof the clean runs above cannot pass vacuously.
func TestSeededViolationsAreCaught(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"seeded/seeded.go": `package seeded

import "time"

func Stamp() time.Time { return time.Now() }
`,
		// An internal export nothing outside its tests calls.
		"seeded/internal/dead/dead.go": `package dead

// Dead has no user.
func Dead() {}
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	u, err := analysis.LoadFixtureTree(root, "seeded/...")
	if err != nil {
		t.Fatalf("loading seeded fixture: %v", err)
	}
	for _, a := range []*analysis.Analyzer{analysis.Wallclock, analysis.DocExport, analysis.UnusedExport} {
		findings, err := analysis.Run([]*analysis.Analyzer{a}, u)
		if err != nil {
			t.Fatalf("running %s over seeded fixture: %v", a.Name, err)
		}
		if len(findings) == 0 {
			t.Errorf("%s missed the seeded violation", a.Name)
		}
	}
}
