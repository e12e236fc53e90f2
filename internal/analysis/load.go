package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the analyzed universe.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Target marks packages named by the load patterns (as opposed to
	// dependencies pulled in only so facts and types resolve). The
	// driver reports diagnostics for targets only.
	Target bool
}

// Universe is a set of packages type-checked from source against one
// shared token.FileSet and object space, in dependency order. Shared
// identity is what lets facts be keyed by *types.Object directly.
type Universe struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	byPath map[string]*Package
}

// InModule reports whether path is part of the analyzed universe (as
// opposed to the standard library).
func (u *Universe) InModule(path string) bool {
	_, ok := u.byPath[path]
	return ok
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// LoadPackages loads the module packages matched by patterns (plus
// their in-module dependencies) from source, resolving standard-library
// imports through the build cache's export data. dir is the directory
// the go tool runs in; patterns default to ./... .
//
// The go toolchain does the heavy lifting: `go list -deps -export`
// yields the full dependency set in dependency order with compiled
// export data for the standard library, so the loader needs neither
// network access nor any third-party machinery.
func LoadPackages(dir string, patterns ...string) (*Universe, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Pass 1: which packages did the patterns actually name?
	targetOut, err := goList(dir, append([]string{"list", "-json=ImportPath"}, patterns...))
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, p := range targetOut {
		targets[p.ImportPath] = true
	}

	// Pass 2: full dependency closure with export data.
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Module"}, patterns...)
	listed, err := goList(dir, args)
	if err != nil {
		return nil, err
	}

	u := &Universe{Fset: token.NewFileSet(), byPath: make(map[string]*Package)}
	stdExports := make(map[string]string)
	var moduleOrder []listedPackage
	for _, p := range listed {
		if p.Module == nil {
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
			continue
		}
		moduleOrder = append(moduleOrder, p)
	}

	imp := &universeImporter{
		u:  u,
		gc: importer.ForCompiler(u.Fset, "gc", exportLookup(stdExports)),
	}
	for _, p := range moduleOrder {
		pkg, err := u.check(p.ImportPath, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		pkg.Target = targets[p.ImportPath]
	}
	return u, nil
}

// goList runs a `go list` invocation in dir and decodes its JSON stream.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args[:2], " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup adapts a path->file map to the gc importer's lookup.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// check parses and type-checks one package into the universe. Callers
// must check dependencies first (LoadPackages relies on `go list -deps`
// dependency order; the fixture loader recurses explicitly).
func (u *Universe) check(path, dir string, goFiles []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(u.Fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, u.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	u.Pkgs = append(u.Pkgs, pkg)
	u.byPath[path] = pkg
	return pkg, nil
}

// universeImporter resolves in-universe imports to their source-checked
// packages and everything else through gc export data.
type universeImporter struct {
	u  *Universe
	gc types.Importer
}

func (i *universeImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.u.byPath[path]; ok {
		return p.Types, nil
	}
	return i.gc.Import(path)
}

// stdlibExports memoizes on-demand export-data resolution for standard
// library packages (used by the fixture loader, which has no upfront
// `go list -deps` pass).
var stdlibExports sync.Map // import path -> export file

// stdlibLookup resolves a stdlib import path to its export data file by
// asking the go tool, caching across calls.
func stdlibLookup(path string) (io.ReadCloser, error) {
	if f, ok := stdlibExports.Load(path); ok {
		return os.Open(f.(string))
	}
	cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v\n%s", path, err, stderr.String())
	}
	f := strings.TrimSpace(string(out))
	if f == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	stdlibExports.Store(path, f)
	return os.Open(f)
}

// LoadFixtureTree loads GOPATH-style fixture packages rooted at srcRoot
// (testdata/src in analysistest terms). Each pattern is an import path
// relative to srcRoot; a trailing "/..." matches the subtree. Fixture
// packages may import each other by those relative paths and may import
// the standard library.
func LoadFixtureTree(srcRoot string, patterns ...string) (*Universe, error) {
	u := &Universe{Fset: token.NewFileSet(), byPath: make(map[string]*Package)}
	l := &fixtureLoader{
		u:       u,
		srcRoot: srcRoot,
		gc:      importer.ForCompiler(u.Fset, "gc", stdlibLookup),
		loading: make(map[string]bool),
	}

	var paths []string
	for _, pat := range patterns {
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			expanded, err := fixtureDirs(srcRoot, sub)
			if err != nil {
				return nil, err
			}
			paths = append(paths, expanded...)
			continue
		}
		paths = append(paths, pat)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		pkg.Target = true
	}
	return u, nil
}

// fixtureDirs finds every directory under srcRoot/sub containing .go
// files, returned as srcRoot-relative import paths.
func fixtureDirs(srcRoot, sub string) ([]string, error) {
	var out []string
	root := filepath.Join(srcRoot, sub)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(srcRoot, path)
				if err != nil {
					return err
				}
				out = append(out, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	return out, err
}

// fixtureLoader type-checks fixture packages recursively on demand.
type fixtureLoader struct {
	u       *Universe
	srcRoot string
	gc      types.Importer
	loading map[string]bool
}

func (l *fixtureLoader) load(path string) (*Package, error) {
	if p, ok := l.u.byPath[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through fixture package %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %v", path, err)
	}
	var goFiles []string
	for _, e := range ents {
		// Test files are left out, as `go list` leaves them out of
		// GoFiles: a fixture's _test.go file models a test-only user.
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("fixture package %q has no Go files", path)
	}
	sort.Strings(goFiles)
	return l.u.check(path, dir, goFiles, (*fixtureImporter)(l))
}

// fixtureImporter resolves fixture-tree imports first, then stdlib.
type fixtureImporter fixtureLoader

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(i.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		p, err := (*fixtureLoader)(i).load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return i.gc.Import(path)
}
