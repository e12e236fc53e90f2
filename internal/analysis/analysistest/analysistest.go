// Package analysistest runs sdradlint analyzers over fixture packages,
// in the style of golang.org/x/tools/go/analysis/analysistest: fixture
// sources carry "// want" comments holding regular expressions (as
// quoted Go strings) that must match the diagnostics reported on their
// line, and the runner fails the test on any mismatch in either
// direction — a missing diagnostic and an unexpected diagnostic are
// both failures.
//
// Fixtures live in GOPATH-style trees (testdata/src/<importpath>/) so
// they may import each other by relative path; the Go toolchain ignores
// testdata directories, so fixture packages can contain deliberate
// invariant violations without tripping the repo-wide lint.
//
//lint:allow unusedexport a fixture runner: only the analyzers' tests import it
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// TB is the subset of testing.TB the runner needs. Tests pass a
// *testing.T; the lint suite's self-test passes a recorder instead, to
// prove the fixtures fail when a check is disabled.
type TB interface {
	Errorf(format string, args ...any)
}

// expectation is one "// want" regexp anchored to a file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// wantMarker locates the expectation list inside a comment: everything
// after the first "// want " marker, parsed as quoted Go strings. The
// mandatory trailing space keeps prose like "// wanted" from matching.
var wantMarker = regexp.MustCompile(`// ?want (.*)`)

// Run loads the fixture packages under srcRoot matched by patterns,
// applies the analyzer, and checks its findings against the fixtures'
// "// want" comments. It returns the findings for callers that assert
// beyond positions and messages.
func Run(t TB, srcRoot string, a *analysis.Analyzer, patterns ...string) []analysis.Finding {
	absRoot, err := filepath.Abs(srcRoot)
	if err != nil {
		t.Errorf("analysistest: resolving %s: %v", srcRoot, err)
		return nil
	}
	u, err := analysis.LoadFixtureTree(absRoot, patterns...)
	if err != nil {
		t.Errorf("analysistest: loading fixtures under %s: %v", srcRoot, err)
		return nil
	}
	findings, err := analysis.Run([]*analysis.Analyzer{a}, u)
	if err != nil {
		t.Errorf("analysistest: running %s: %v", a.Name, err)
		return nil
	}
	wants := collectWants(t, u)

	// Claim findings against expectations by (file, line); whatever is
	// left on either side is a failure.
	type key struct {
		file string
		line int
	}
	unclaimed := make(map[key][]analysis.Finding)
	for _, f := range findings {
		unclaimed[key{absPath(f.File), f.Line}] = append(unclaimed[key{absPath(f.File), f.Line}], f)
	}
	for _, w := range wants {
		k := key{w.file, w.line}
		matched := -1
		for i, f := range unclaimed[k] {
			if w.re.MatchString(f.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s:%d: no %s diagnostic matching %s", relPath(absRoot, w.file), w.line, a.Name, w.raw)
			continue
		}
		unclaimed[k] = append(unclaimed[k][:matched], unclaimed[k][matched+1:]...)
	}
	for _, f := range findings {
		k := key{absPath(f.File), f.Line}
		for i, uf := range unclaimed[k] {
			if uf == f {
				t.Errorf("unexpected diagnostic: %s", f.String())
				unclaimed[k] = append(unclaimed[k][:i], unclaimed[k][i+1:]...)
				break
			}
		}
	}
	return findings
}

// collectWants scans the target packages' comments for expectations.
func collectWants(t TB, u *analysis.Universe) []expectation {
	var wants []expectation
	for _, pkg := range u.Pkgs {
		if !pkg.Target {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantMarker.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					rest := strings.TrimSpace(m[1])
					for rest != "" {
						q, err := strconv.QuotedPrefix(rest)
						if err != nil {
							t.Errorf("%s:%d: malformed want expectation %q (quoted Go strings expected)",
								pos.Filename, pos.Line, rest)
							break
						}
						rest = strings.TrimSpace(rest[len(q):])
						text, err := strconv.Unquote(q)
						if err != nil {
							t.Errorf("%s:%d: unquoting want expectation %s: %v", pos.Filename, pos.Line, q, err)
							continue
						}
						re, err := regexp.Compile(text)
						if err != nil {
							t.Errorf("%s:%d: compiling want expectation %s: %v", pos.Filename, pos.Line, q, err)
							continue
						}
						wants = append(wants, expectation{file: absPath(pos.Filename), line: pos.Line, re: re, raw: q})
					}
				}
			}
		}
	}
	return wants
}

// absPath normalizes a path for matching findings (reported relative to
// the working directory) against fileset positions (absolute).
func absPath(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		return filepath.Clean(p)
	}
	return abs
}

// relPath renders a fixture file relative to the tree root for messages.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}
