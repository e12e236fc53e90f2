package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Analyzer describes one invariant check: a name (used in directives and
// output), a doc string, and a Run function applied to each package.
// The API deliberately mirrors golang.org/x/tools/go/analysis so the
// suite can migrate to the upstream framework wholesale if the
// dependency ever becomes available; only the driver would change.
type Analyzer struct {
	// Name identifies the analyzer in findings, in suppression
	// directives ("//lint:<name> <justification>") and in package
	// exemptions ("//lint:allow <name> <reason>").
	Name string
	// Doc is a short description of the invariant the analyzer
	// enforces, shown by `sdradlint -list`.
	Doc string
	// Run applies the check to one type-checked package.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Fact is a marker interface for analyzer facts. A fact is a claim an
// analyzer attaches to an object while analyzing its defining package;
// downstream packages (analyzed later, in dependency order) can query
// it. Sanctioned-function marks are facts, so policy travels with the
// code that declares it instead of living in path lists inside the
// driver.
type Fact interface{ AFact() }

// Pass carries one analyzer's view of one package: syntax, types, the
// shared fact store, and the Report sink. It mirrors analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed non-test source files of the package.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// InModule reports whether an import path belongs to the analyzed
	// universe (the module under lint, or the fixture tree in tests) as
	// opposed to the standard library. Analyzers use it to scope checks
	// to our own code.
	InModule func(path string) bool
	// Universe holds every loaded package. A package is analyzed before
	// its importers, so a check that needs a package's users (such as
	// unusedexport) reads them here rather than from facts.
	Universe *Universe

	facts *factStore
	diags *[]Diagnostic
	// suppressLines maps filename -> line numbers covered by a
	// "//lint:<name> <justification>" suppression for this analyzer.
	suppressLines map[string]map[int]bool
	pkgAllowed    bool
}

// Reportf records a finding at pos unless a same-line or preceding-line
// "//lint:<name> <justification>" directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.siteSuppressed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether the package under analysis carries a
// "//lint:allow <name> <reason>" directive on (or immediately above)
// its package clause, exempting the whole package from this analyzer.
func (p *Pass) Allowed() bool { return p.pkgAllowed }

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(obj, fact)
}

// ObjectFact reports whether obj carries a fact with the same dynamic
// type as sample, returning it if so.
func (p *Pass) ObjectFact(obj types.Object, sample Fact) (Fact, bool) {
	return p.facts.objectFact(obj, sample)
}

// factStore holds the facts exported by one analyzer across an entire
// run. Object identity is sound as a key because the loader type-checks
// every module package from source in one shared universe, so the
// *types.Func seen by the defining package is the same object seen by
// its importers.
type factStore struct {
	obj map[types.Object][]Fact
}

func newFactStore() *factStore {
	return &factStore{obj: make(map[types.Object][]Fact)}
}

func (s *factStore) exportObject(obj types.Object, f Fact) {
	s.obj[obj] = append(s.obj[obj], f)
}

func (s *factStore) objectFact(obj types.Object, sample Fact) (Fact, bool) {
	return matchFact(s.obj[obj], sample)
}

func matchFact(facts []Fact, sample Fact) (Fact, bool) {
	want := reflect.TypeOf(sample)
	for _, f := range facts {
		if reflect.TypeOf(f) == want {
			return f, true
		}
	}
	return nil, false
}

// Directive syntax. Two forms, both exact-prefix "//lint:" comments (no
// space after "//", so ordinary prose never matches):
//
//	//lint:allow <analyzer> <reason>   — package-wide exemption; must sit
//	                                     on or immediately above the
//	                                     package clause.
//	//lint:<analyzer> <justification>  — suppresses findings of that
//	                                     analyzer on the directive's line
//	                                     and the line below it.
//	//lint:uncharged                   — declaration mark consumed by the
//	                                     unchargedmem analyzer.
//
// A suppression with an empty justification is itself a finding: the
// point of the annotation is a reviewable reason, not a mute button.
const directivePrefix = "//lint:"

// prepareDirectives scans the package's comments once, recording
// package-level allows and per-line suppressions for this analyzer.
func (p *Pass) prepareDirectives() {
	name := p.Analyzer.Name
	suppressLines := make(map[string]map[int]bool)
	for _, f := range p.Files {
		fileName := p.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, rest, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				switch dir {
				case "allow":
					an, reason, _ := strings.Cut(rest, " ")
					if an != name {
						continue
					}
					if strings.TrimSpace(reason) == "" {
						*p.diags = append(*p.diags, Diagnostic{Pos: c.Pos(),
							Message: fmt.Sprintf("lint:allow %s directive needs a reason", name)})
						continue
					}
					// The exemption must be anchored to the package
					// clause, not buried mid-file.
					if pos.Line <= p.Fset.Position(f.Package).Line {
						p.pkgAllowed = true
					} else {
						*p.diags = append(*p.diags, Diagnostic{Pos: c.Pos(),
							Message: fmt.Sprintf("lint:allow %s must be on or above the package clause", name)})
					}
				case name:
					if strings.TrimSpace(rest) == "" {
						*p.diags = append(*p.diags, Diagnostic{Pos: c.Pos(),
							Message: fmt.Sprintf("lint:%s directive needs a justification", name)})
						continue
					}
					if suppressLines[fileName] == nil {
						suppressLines[fileName] = make(map[int]bool)
					}
					suppressLines[fileName][pos.Line] = true
					suppressLines[fileName][pos.Line+1] = true
				}
			}
		}
	}
	p.suppressLines = suppressLines
}

// parseDirective splits a "//lint:<verb> <rest>" comment.
func parseDirective(text string) (verb, rest string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	body := text[len(directivePrefix):]
	verb, rest, _ = strings.Cut(body, " ")
	return verb, rest, verb != ""
}

// siteSuppressed reports whether a "//lint:<name>" directive covers pos.
func (p *Pass) siteSuppressed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.suppressLines[position.Filename][position.Line]
}
