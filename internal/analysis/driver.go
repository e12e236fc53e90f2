package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one reported diagnostic, position rendered for output.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Run applies each analyzer to every package of the universe in
// dependency order (so facts exported by a package are visible to its
// importers) and returns the findings for target packages, sorted by
// position. Findings are deterministic: analyzers may iterate maps
// freely because ordering is imposed here.
func Run(analyzers []*Analyzer, u *Universe) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		facts := newFactStore()
		for _, pkg := range u.Pkgs {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				InModule:  u.InModule,
				Universe:  u,
				facts:     facts,
				diags:     &diags,
			}
			pass.prepareDirectives()
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
			if !pkg.Target {
				continue
			}
			for _, d := range diags {
				findings = append(findings, toFinding(a, u.Fset, d))
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// toFinding renders a diagnostic with a working-directory-relative file
// path when possible, keeping output stable across checkouts.
func toFinding(a *Analyzer, fset *token.FileSet, d Diagnostic) Finding {
	pos := fset.Position(d.Pos)
	file := pos.Filename
	if wd, err := filepath.Abs("."); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return Finding{Analyzer: a.Name, File: file, Line: pos.Line, Col: pos.Column, Message: d.Message}
}
