package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc structurally guards the zero-allocation paths that the
// AllocsPerRun round-trip tests measure end to end. A function marked
//
//	//starlink:hotpath
//
// must keep its success path free of the five allocation sources that
// have historically crept into Starlink's steady-state bridge loop:
//
//   - fmt calls (Sprintf and friends allocate unconditionally);
//   - non-constant string concatenation;
//   - closures that capture variables (captured vars are heap-moved and
//     the closure itself allocates per call);
//   - append to a slice that starts with no capacity in this function
//     (growth from zero reallocates on the steady path; appending to a
//     caller-provided or make()-sized slice is the sanctioned idiom);
//   - the address of a message.Field or message.Message composite
//     literal: a heap allocation where the pools package message keeps
//     (NewField, NewPooled) would recycle one.
//
// Error construction is exempt: an expression inside a return whose
// final result is a non-nil error sits on the failure path, which is
// allowed to allocate. The annotation is not transitive — callees need
// their own annotation — so marking a thin wrapper checks only the
// wrapper.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions marked //starlink:hotpath avoid fmt, string concatenation, capturing closures, zero-capacity appends and unpooled message literals",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	pass.eachFuncDecl(func(f *ast.File, decl *ast.FuncDecl) {
		if !hasDirective(decl, "hotpath") {
			return
		}
		checkHotBody(pass, decl)
	})
	return nil
}

func checkHotBody(pass *Pass, decl *ast.FuncDecl) {
	body := decl.Body
	coldReturns := coldReturnSpans(pass, decl)
	isCold := func(pos token.Pos) bool {
		for _, sp := range coldReturns {
			if pos >= sp[0] && pos <= sp[1] {
				return true
			}
		}
		return false
	}
	zeroCap := zeroCapSlices(pass, body)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCold(n.Pos()) {
				return true
			}
			if fn := calleeFunc(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s on a //starlink:hotpath success path allocates; format off the hot path or append manually", fn.Name())
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					if v := usedVar(pass, n.Args[0]); v != nil && zeroCap[v] {
						pass.Reportf(n.Pos(), "append to %s, which starts with no capacity in a //starlink:hotpath function; preallocate with make or take the buffer from the caller", v.Name())
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD || isCold(n.Pos()) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[n]
			if !ok || tv.Value != nil { // constant-folded concat is free
				return true
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				pass.Reportf(n.Pos(), "string concatenation on a //starlink:hotpath success path allocates; use append on a byte buffer")
			}
		case *ast.UnaryExpr:
			lit, ok := ast.Unparen(n.X).(*ast.CompositeLit)
			if n.Op != token.AND || !ok || isCold(n.Pos()) {
				return true
			}
			if named, ok := pass.TypesInfo.Types[lit].Type.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == messagePath && pooledTypes[named.Obj().Name()] != "" {
				pass.Reportf(n.Pos(), "&message.%s{} on a //starlink:hotpath success path allocates; take one from the pool (message.%s)",
					named.Obj().Name(), pooledTypes[named.Obj().Name()])
			}
		case *ast.FuncLit:
			if isCold(n.Pos()) {
				return false
			}
			if capt := capturedVar(pass, n); capt != nil {
				pass.Reportf(n.Pos(), "closure capturing %s in a //starlink:hotpath function allocates per call; hoist the closure or pass state explicitly", capt.Name())
			}
			return false // don't descend: the literal runs later, not on this path
		}
		return true
	})
}

// pooledTypes maps each type package message pools to its constructor.
var pooledTypes = map[string]string{"Field": "NewField", "Message": "NewPooled"}

// coldReturnSpans finds the source spans of return statements whose
// last result is a non-nil error — the sanctioned allocation sites.
func coldReturnSpans(pass *Pass, decl *ast.FuncDecl) [][2]token.Pos {
	results := decl.Type.Results
	if results == nil || len(results.List) == 0 {
		return nil
	}
	last := results.List[len(results.List)-1].Type
	tv, ok := pass.TypesInfo.Types[last]
	if !ok || !isErrorType(tv.Type) {
		return nil
	}
	var spans [][2]token.Pos
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		if isNilIdent(ret.Results[len(ret.Results)-1]) {
			return true // success return: stays hot
		}
		spans = append(spans, [2]token.Pos{ret.Pos(), ret.End()})
		return true
	})
	return spans
}

// zeroCapSlices collects local slice variables declared with no backing
// capacity: `var x []T`, `x := []T{}`, or `x := T(nil)`. A slice built
// with make (any capacity) or received as a parameter is assumed sized.
func zeroCapSlices(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(ident *ast.Ident) {
		if v, ok := pass.TypesInfo.Defs[ident].(*types.Var); ok && v != nil {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				out[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				if cl, ok := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit); ok {
					if len(cl.Elts) == 0 {
						if _, isSlice := pass.TypesInfo.Types[cl].Type.Underlying().(*types.Slice); isSlice {
							mark(id)
						}
					}
				}
				if isNilIdent(n.Rhs[i]) {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// usedVar resolves an expression to the variable it names, or nil.
func usedVar(pass *Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// capturedVar returns a variable the literal references but does not
// declare — a closure capture — or nil when the literal is capture-free.
func capturedVar(pass *Pass, lit *ast.FuncLit) *types.Var {
	var found *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level: not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if !v.IsField() {
				found = v
			}
		}
		return true
	})
	return found
}
