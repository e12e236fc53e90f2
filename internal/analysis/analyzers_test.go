package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// srcRoot is the GOPATH-style fixture tree; go tooling ignores testdata
// directories, so the deliberate violations inside never trip the
// repo-wide lint.
const srcRoot = "testdata/src"

// fixturePatterns maps each analyzer to its fixture subtree.
var fixturePatterns = map[string]string{
	"wallclock":    "wallclock/...",
	"unchargedmem": "unchargedmem/...",
	"detorder":     "detorder/...",
	"errclass":     "errclass/...",
	"docexport":    "docexport/...",
	"unusedexport": "unusedexport/...",
	"servedlinks":  "servedlinks/...",
}

func TestWallclockFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.Wallclock, fixturePatterns["wallclock"])
}

func TestUnchargedMemFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.UnchargedMem, fixturePatterns["unchargedmem"])
}

func TestDetOrderFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.DetOrder, fixturePatterns["detorder"])
}

func TestErrClassFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.ErrClass, fixturePatterns["errclass"])
}

func TestDocExportFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.DocExport, fixturePatterns["docexport"])
}

func TestUnusedExportFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.UnusedExport, fixturePatterns["unusedexport"])
}

func TestServedLinksFixtures(t *testing.T) {
	analysistest.Run(t, srcRoot, analysis.ServedLinks, fixturePatterns["servedlinks"])
}

// recorder satisfies analysistest.TB, capturing failures instead of
// failing the test.
type recorder struct{ errs []string }

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestFixturesFailWhenCheckDisabled proves the fixtures are not
// vacuously green: running a disabled stand-in for each analyzer over
// its own fixtures must leave want expectations unmatched. If this
// fails for an analyzer, its fixtures no longer witness the invariant.
func TestFixturesFailWhenCheckDisabled(t *testing.T) {
	for _, a := range analysis.All() {
		pattern, ok := fixturePatterns[a.Name]
		if !ok {
			t.Errorf("%s: no fixture subtree registered", a.Name)
			continue
		}
		disabled := &analysis.Analyzer{Name: a.Name, Doc: a.Doc,
			Run: func(*analysis.Pass) error { return nil }}
		rec := &recorder{}
		analysistest.Run(rec, srcRoot, disabled, pattern)
		if len(rec.errs) == 0 {
			t.Errorf("%s: fixtures still pass with the check disabled", a.Name)
		}
	}
}

// TestEmptyDirectiveReasonsAreFindings pins the directive contract: an
// allow without a reason and a suppression without a justification are
// themselves findings, and neither takes effect (the suppressed site is
// still reported).
func TestEmptyDirectiveReasonsAreFindings(t *testing.T) {
	for _, tc := range []struct {
		a       *analysis.Analyzer
		fixture string
		site    string
	}{
		{analysis.Wallclock, "directives/empty", "reference to time.Now"},
		{analysis.UnusedExport, "directives/internal/bare", "exported func Orphan"},
	} {
		u, err := analysis.LoadFixtureTree(srcRoot, tc.fixture)
		if err != nil {
			t.Fatalf("loading fixture: %v", err)
		}
		fs, err := analysis.Run([]*analysis.Analyzer{tc.a}, u)
		if err != nil {
			t.Fatalf("running %s: %v", tc.a.Name, err)
		}
		var msgs []string
		for _, f := range fs {
			msgs = append(msgs, f.Message)
		}
		for _, want := range []string{"needs a reason", "needs a justification", tc.site} {
			found := false
			for _, m := range msgs {
				if strings.Contains(m, want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no finding containing %q in %v", tc.a.Name, want, msgs)
			}
		}
		if len(fs) != 3 {
			t.Errorf("%s: got %d findings, want 3: %v", tc.a.Name, len(fs), msgs)
		}
	}
}

// TestByName pins the registry the sdradlint -analyzers flag uses.
func TestByName(t *testing.T) {
	for _, a := range analysis.All() {
		if got := analysis.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v; want the registered analyzer", a.Name, got)
		}
	}
	if got := analysis.ByName("nosuch"); got != nil {
		t.Errorf("ByName(nosuch) = %v, want nil", got)
	}
}
