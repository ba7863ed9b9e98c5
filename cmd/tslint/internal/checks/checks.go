// Package checks implements the tslint analyzer suite: five
// project-specific analyzers enforcing the repo's concurrency, hot-path
// and registry invariants, plus curated lite ports of the stock x/tools
// passes (nilness, unusedwrite) scoped to the patterns this codebase
// actually exhibits, and the one copylocks shape go vet leaves out.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"tsspace/cmd/tslint/internal/lint"
)

// All returns the full tslint suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		RegisterAccess,
		Hotpath,
		TypedErr,
		RegistryInit,
		AtomicMix,
		CopyLocks,
		Nilness,
		UnusedWrite,
	}
}

// Names returns the names of the full suite: the valid //tslint:allow
// targets.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// ByName resolves a comma-separated analyzer list against the suite.
func ByName(list string) ([]*lint.Analyzer, bool) {
	byName := make(map[string]*lint.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(list, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

// inTimestampTree reports whether path is a package strictly below
// internal/timestamp — an algorithm implementation package. The registry
// root itself (internal/timestamp) is harness, not algorithm, and is
// exempt. Matching on the path infix (not a module-qualified prefix)
// lets the analysistest fixtures under testdata/src mirror the layout.
func inTimestampTree(path string) bool {
	return strings.Contains(path, "internal/timestamp/")
}

// hasPathSegment reports whether one element of the import path equals
// seg exactly.
func hasPathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the function or method it
// statically invokes, or nil (builtins, conversions, calls of function
// values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named function from the package
// whose import path is pkgPath or ends in "/"+pkgPath.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	p := fn.Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// namedIn reports whether t is (after pointer indirection) a named type
// declared in the package whose import path is pkgPath or ends in
// "/"+pkgPath, returning its name.
func namedIn(t types.Type, pkgPath string) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if p := named.Obj().Pkg().Path(); p != pkgPath && !strings.HasSuffix(p, "/"+pkgPath) {
		return "", false
	}
	return named.Obj().Name(), true
}

// exportedFuncDecl reports whether fn is part of the package's exported
// API: an exported top-level function, or an exported method on an
// exported receiver type.
func exportedFuncDecl(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// firstFile returns the package file with the lexically smallest name:
// the deterministic anchor for package-level diagnostics.
func firstFile(pass *lint.Pass) *ast.File {
	best := pass.Files[0]
	bestName := pass.Fset.Position(best.Package).Filename
	for _, f := range pass.Files[1:] {
		if name := pass.Fset.Position(f.Package).Filename; name < bestName {
			best, bestName = f, name
		}
	}
	return best
}
