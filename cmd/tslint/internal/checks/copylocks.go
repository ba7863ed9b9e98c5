package checks

import (
	"go/ast"
	"go/types"

	"tsspace/cmd/tslint/internal/lint"
)

// CopyLocks covers the one shape of the stock copylocks pass that go vet
// leaves out: a function result whose type (transitively) contains a sync
// lock or a typed atomic. A copied mutex is a second, independent lock
// guarding the same data, and a copied atomic tears the protocol, so such
// values are handed out by pointer. vet's copylocks, which CI also runs,
// reports every other copy: by-value receivers and parameters,
// assignments, range values and call arguments.
var CopyLocks = &lint.Analyzer{
	Name: "copylocks",
	Doc:  "function results must not hold sync locks or typed atomics by value (go vet covers the other copies)",
	Run:  runCopyLocks,
}

var lockTypeNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Cond": true, "Pool": true, "Map": true,
}

// containsLock reports whether a value of type t embeds a lock (or typed
// atomic) by value.
func containsLock(t types.Type) bool {
	return containsLockRec(t, make(map[types.Type]bool))
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	// namedIn strips one pointer level; only the value form locks.
	if _, isPtr := t.(*types.Pointer); isPtr || t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if name, ok := namedIn(t, "sync"); ok && lockTypeNames[name] {
		return true
	}
	if name, ok := namedIn(t, "sync/atomic"); ok && atomicTypeNames[name] {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(u.Elem(), seen)
	}
	return false
}

func runCopyLocks(pass *lint.Pass) error {
	checkResults := func(ft *ast.FuncType) {
		if ft.Results == nil {
			return
		}
		for _, field := range ft.Results.List {
			if tv, ok := pass.TypesInfo.Types[field.Type]; ok && containsLock(tv.Type) {
				pass.Reportf(field.Type.Pos(), "result passes a lock by value: %s contains a sync lock or typed atomic", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkResults(n.Type)
			case *ast.FuncLit:
				checkResults(n.Type)
			}
			return true
		})
	}
	return nil
}
