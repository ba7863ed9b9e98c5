package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"tsspace/cmd/tslint/internal/lint"
)

// Hotpath protects the committed 0 allocs/op trajectory (PR 5/6): every
// function reachable inside its package from a //tslint:hotpath-annotated
// root — Session.GetTS/GetTSBatch, the scalar register array, the binary
// codec steady state — must not call into fmt, allocate (make, new,
// closures, heap-escaping or slice/map composite literals), box concrete
// values into interfaces, or acquire sync mutexes. Cold branches that are
// provably off the steady state (panic-on-misuse formatting, error-frame
// decoding) opt out per line with //tslint:allow hotpath <reason>.
//
// Reachability is intra-package: calls that leave the package are checked
// against the deny list (fmt, mutexes) but not followed, so cross-package
// hot callees carry their own //tslint:hotpath annotation.
var Hotpath = &lint.Analyzer{
	Name: "hotpath",
	Doc:  "functions reachable from //tslint:hotpath roots must not allocate, box, call fmt, or lock",
	Run:  runHotpath,
}

var mutexLockNames = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

func runHotpath(pass *lint.Pass) error {
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = fn
			if lint.HotpathRoot(fn) {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Intra-package BFS from the annotated roots; the first root to reach
	// a function names it in diagnostics.
	reachedVia := make(map[*types.Func]string)
	var queue []*types.Func
	for _, fn := range roots {
		obj := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if _, dup := reachedVia[obj]; !dup {
			reachedVia[obj] = declName(fn)
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		body := decls[obj].Body
		ast.Inspect(body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // closures are flagged as allocations, not traversed
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if _, local := decls[callee]; local {
				if _, seen := reachedVia[callee]; !seen {
					reachedVia[callee] = reachedVia[obj]
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	for obj, root := range reachedVia {
		checkHotFunc(pass, decls[obj], root)
	}
	return nil
}

// declName renders a FuncDecl as Name or RecvType.Name for diagnostics.
func declName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name + "." + fn.Name.Name
		default:
			return fn.Name.Name
		}
	}
}

func checkHotFunc(pass *lint.Pass, fn *ast.FuncDecl, root string) {
	info := pass.TypesInfo
	sig := info.Defs[fn.Name].(*types.Func).Signature()
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, "hot path (via %s): "+format, append([]any{root}, args...)...)
	}
	qual := types.RelativeTo(pass.Pkg)
	boxCheck := func(dst types.Type, src ast.Expr) {
		if dst == nil || !types.IsInterface(dst) {
			return
		}
		tv, ok := info.Types[src]
		if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type) {
			return
		}
		report(src.Pos(), "boxes %s into %s (allocates)", types.TypeString(tv.Type, qual), types.TypeString(dst, qual))
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "allocates a closure")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(lit.Pos(), "heap-escaping composite literal")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "allocates a slice literal")
				case *types.Map:
					report(n.Pos(), "allocates a map literal")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					if tv, ok := info.Types[lhs]; ok {
						boxCheck(tv.Type, n.Rhs[i])
					}
				}
			}
		case *ast.ReturnStmt:
			results := sig.Results()
			if len(n.Results) == results.Len() {
				for i, res := range n.Results {
					boxCheck(results.At(i).Type(), res)
				}
			}
		case *ast.CallExpr:
			// Conversions: T(x) with T an interface type boxes x.
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if len(n.Args) == 1 {
					boxCheck(tv.Type, n.Args[0])
				}
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						report(n.Pos(), "allocates with make")
					case "new":
						report(n.Pos(), "allocates with new")
					}
					return true
				}
			}
			callee := calleeFunc(info, n)
			if callee == nil {
				// A call of a function-typed value: still check boxing
				// against its signature if known.
				if tv, ok := info.Types[n.Fun]; ok {
					if s, ok := tv.Type.Underlying().(*types.Signature); ok {
						checkCallBoxing(n, s, boxCheck)
					}
				}
				return true
			}
			if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				report(n.Pos(), "calls fmt.%s (formats and allocates)", callee.Name())
			}
			if csig := callee.Signature(); csig != nil {
				if recv := csig.Recv(); recv != nil && mutexLockNames[callee.Name()] {
					if name, ok := namedIn(recv.Type(), "sync"); ok && (name == "Mutex" || name == "RWMutex") {
						report(n.Pos(), "acquires sync.%s.%s", name, callee.Name())
					}
				}
				checkCallBoxing(n, csig, boxCheck)
			}
		}
		return true
	})
}

// checkCallBoxing applies boxCheck to every argument position of a call,
// honoring variadics (an explicit ... spread passes the slice through
// unboxed).
func checkCallBoxing(call *ast.CallExpr, sig *types.Signature, boxCheck func(types.Type, ast.Expr)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			dst = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				dst = slice.Elem()
			}
		}
		if dst != nil {
			boxCheck(dst, arg)
		}
	}
}
