package exp

import (
	"go/ast"
	"go/types"
	"strconv"
	"testing"

	"repro/internal/analysis"
)

// shellPackages are the packages whose names count as retrofit code.
var shellPackages = map[string]bool{"repro": true, "repro/internal/retrofit": true}

// TestRetrofitCounts recounts E5's "ours" cells from source. A line of a
// server package's non-test files counts when it imports the root
// package or the shell, or holds an identifier that resolves to one of
// them or to anything they declare — a type, function, method, field or
// constant. Comments hold no identifiers and never count; a file counts
// when any of its lines do.
func TestRetrofitCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the server packages from source")
	}
	u, err := analysis.LoadPackages("../..", "./internal/kvstore", "./internal/httpd")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]retrofitCount{
		"repro/internal/kvstore": kvRetrofit,
		"repro/internal/httpd":   httpdRetrofit,
	}
	for _, pkg := range u.Pkgs {
		w, ok := want[pkg.Path]
		if !ok {
			continue
		}
		var got retrofitCount
		for _, f := range pkg.Files {
			lines := map[int]bool{}
			mark := func(n ast.Node) { lines[u.Fset.Position(n.Pos()).Line] = true }
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && shellPackages[path] {
					mark(imp)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && namesShell(pkg.Info.Uses[id]) {
					mark(id)
				}
				return true
			})
			if len(lines) > 0 {
				got.Files++
				got.Lines += len(lines)
			}
		}
		if got != w {
			t.Errorf("%s: counted %+v, the E5 constant says %+v: update it", pkg.Path, got, w)
		}
	}
}

// namesShell reports whether obj is the root package or the shell, or is
// declared by one of them.
func namesShell(obj types.Object) bool {
	if pn, ok := obj.(*types.PkgName); ok {
		return shellPackages[pn.Imported().Path()]
	}
	return obj != nil && obj.Pkg() != nil && shellPackages[obj.Pkg().Path()]
}
