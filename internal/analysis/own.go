package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Ownership dataflow shared by leasecheck and poolcheck.
//
// An *acquisition* binds a local variable to an owned pooled resource
// (a buffer lease, a pooled message tree). The owner must, on every
// control-flow path, either call the resource's Release method exactly
// once or *transfer* ownership: pass the value to another function,
// store it into a struct/slice/map/channel, or return it. Using the
// value after a definite Release is an error; releasing twice is an
// error.
//
// The analysis is a forward may/must dataflow over the function's CFG
// with one state per acquisition:
//
//	ownNone     nothing owned on this path (nil result, reassigned)
//	ownOwned    definitely owned, not yet released/transferred
//	ownReleased definitely released
//	ownEscaped  ownership transferred; the value is out of our hands
//	ownMaybe    owned on some predecessor paths but not others
//
// Branch conditions refine facts: on the false edge of `v == nil` the
// value is owned, on the true edge there is nothing to release.

type ownState uint8

const (
	ownNone ownState = iota
	ownOwned
	ownReleased
	ownEscaped
	ownMaybe
)

func joinOwn(a, b ownState) ownState {
	if a == b {
		return a
	}
	// None+Released: both "nothing left to do" — quiet.
	if (a == ownNone && b == ownReleased) || (a == ownReleased && b == ownNone) {
		return ownReleased
	}
	// Escaped joined with anything non-owned stays quiet.
	if (a == ownEscaped && b != ownOwned && b != ownMaybe) ||
		(b == ownEscaped && a != ownOwned && a != ownMaybe) {
		return ownEscaped
	}
	return ownMaybe
}

// ownConfig parameterises the dataflow for one analyzer.
type ownConfig struct {
	// isAcquire reports whether the call acquires an owned resource,
	// returning a short description for diagnostics. mayBeNil reports
	// whether the acquisition may legitimately return nil (so nil
	// checks refine it).
	isAcquire func(pass *Pass, call *ast.CallExpr) (what string, mayBeNil bool, ok bool)
	// releaseMethod is the method name that consumes the resource.
	releaseMethod string
	// releaseOn verifies the receiver type of a releaseMethod call
	// really is the tracked resource type.
	releaseOn func(pass *Pass, call *ast.CallExpr) (recv ast.Expr, ok bool)
}

// acquisition is one tracked owned value in one function.
type acquisition struct {
	obj  *types.Var // the variable bound to the resource
	pos  token.Pos  // acquisition site
	what string
	// mayBeNil enables nil-based branch refinement.
	mayBeNil bool
	// deferRelease is set when a `defer v.Release()` guarantees the
	// exit-time release.
	deferRelease bool
	// reported de-duplicates exit diagnostics per acquisition.
	reportedLeak bool
}

// runOwnership analyzes every function body in the pass under cfgOwn.
func runOwnership(pass *Pass, cfg *ownConfig) {
	inspectBodies(pass, func(body *ast.BlockStmt) {
		analyzeOwnership(pass, cfg, body)
	})
}

// inspectBodies visits every function body — declarations and function
// literals — in the analyzed files. Literals are analyzed as their own
// scope: values acquired inside a literal must be settled inside it,
// and values captured from the enclosing function are treated as
// escaped there (the closure capture is a use the intraprocedural
// analysis cannot follow).
func inspectBodies(pass *Pass, fn func(body *ast.BlockStmt)) {
	for _, f := range pass.analyzedFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
				return true // visit nested literals too
			case *ast.FuncLit:
				fn(n.Body)
				return true
			}
			return true
		})
	}
}

func analyzeOwnership(pass *Pass, cfg *ownConfig, body *ast.BlockStmt) {
	acqs := findAcquisitions(pass, cfg, body)
	if len(acqs) == 0 {
		return
	}
	g := buildCFG(body)
	if g.unanalyzable {
		return // goto / labeled branches: stay silent rather than guess
	}

	// Iterate to fixpoint: per-block input states, one vector entry per
	// acquisition.
	n := len(g.blocks)
	in := make([][]ownState, n)
	for i := range in {
		in[i] = make([]ownState, len(acqs))
	}
	// seen marks blocks that have received any input yet.
	seen := make([]bool, n)
	seen[g.entry.index] = true

	type edgeFact struct {
		acq   int
		state ownState
	}
	// worklist of block indices.
	work := []int{g.entry.index}
	inWork := make([]bool, n)
	inWork[g.entry.index] = true

	// one extra pass to emit diagnostics only after the fixpoint.
	for emit := 0; emit < 2; emit++ {
		reporting := emit == 1
		if reporting {
			// Re-seed a full sweep in reverse-postorder-ish (index) order.
			work = work[:0]
			for i := range g.blocks {
				if seen[i] {
					work = append(work, i)
				}
			}
		}
		for len(work) > 0 {
			bi := work[0]
			work = work[1:]
			inWork[bi] = false
			blk := g.blocks[bi]
			st := make([]ownState, len(acqs))
			copy(st, in[bi])

			for _, s := range blk.stmts {
				transferStmt(pass, cfg, acqs, st, s, reporting)
			}
			if blk.returnStmt != nil || blk.end != token.NoPos {
				if reporting {
					reportExit(pass, acqs, st, blk)
				}
				continue
			}

			for si, succ := range blk.succs {
				out := make([]ownState, len(st))
				copy(out, st)
				if blk.cond != nil && si < 2 {
					refineCond(pass, acqs, out, blk.cond, si == 0)
				}
				if reporting {
					continue
				}
				changed := false
				if !seen[succ.index] {
					copy(in[succ.index], out)
					seen[succ.index] = true
					changed = true
				} else {
					for i := range out {
						j := joinOwn(in[succ.index][i], out[i])
						if j != in[succ.index][i] {
							in[succ.index][i] = j
							changed = true
						}
					}
				}
				if changed && !inWork[succ.index] {
					work = append(work, succ.index)
					inWork[succ.index] = true
				}
			}
		}
	}
	_ = edgeFact{}
}

// findAcquisitions scans the body (excluding nested function literals)
// for statements that bind an acquire-call result to a local variable.
func findAcquisitions(pass *Pass, cfg *ownConfig, body *ast.BlockStmt) []*acquisition {
	var acqs []*acquisition
	walkShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		what, mayBeNil, ok := cfg.isAcquire(pass, call)
		if !ok {
			return
		}
		if len(as.Lhs) == 0 {
			return
		}
		v := lhsVar(pass, as.Lhs[0])
		if v == nil {
			return
		}
		acqs = append(acqs, &acquisition{obj: v, pos: call.Pos(), what: what, mayBeNil: mayBeNil})
	})
	return acqs
}

// walkShallow visits nodes without descending into function literals.
func walkShallow(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

func lhsVar(pass *Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if def, ok := pass.TypesInfo.Defs[id]; ok {
		v, _ := def.(*types.Var)
		return v
	}
	if use, ok := pass.TypesInfo.Uses[id]; ok {
		v, _ := use.(*types.Var)
		// Only track function-local variables: assignments to package
		// vars or fields escape the intraprocedural analysis.
		if v != nil && v.Parent() != nil && v.Parent() != v.Pkg().Scope() {
			return v
		}
	}
	return nil
}

// acqIndex finds the tracked acquisition for an identifier use.
func acqIndex(pass *Pass, acqs []*acquisition, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	if v == nil {
		return -1
	}
	for i, a := range acqs {
		if a.obj == v {
			return i
		}
	}
	return -1
}

// refineCond sharpens states on a branch edge for `v == nil` and
// `v != nil` conditions.
func refineCond(pass *Pass, acqs []*acquisition, st []ownState, cond ast.Expr, trueEdge bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	var varSide ast.Expr
	if isNilIdent(be.Y) {
		varSide = be.X
	} else if isNilIdent(be.X) {
		varSide = be.Y
	} else {
		return
	}
	// isNil: does this edge imply varSide == nil?
	isNil := (be.Op == token.EQL) == trueEdge

	if i := acqIndex(pass, acqs, varSide); i >= 0 && acqs[i].mayBeNil {
		if st[i] == ownOwned || st[i] == ownMaybe {
			if isNil {
				st[i] = ownNone
			} else {
				st[i] = ownOwned
			}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// transferStmt applies one statement's effect to the state vector.
func transferStmt(pass *Pass, cfg *ownConfig, acqs []*acquisition, st []ownState, s ast.Stmt, reporting bool) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		if recv, ok := cfg.releaseOn(pass, s.Call); ok {
			if i := acqIndex(pass, acqs, recv); i >= 0 {
				acqs[i].deferRelease = true
				return
			}
		}
		transferExpr(pass, cfg, acqs, st, s.Call, reporting)
		return

	case *ast.AssignStmt:
		// RHS first (evaluation order), then LHS effects.
		for _, r := range s.Rhs {
			transferExpr(pass, cfg, acqs, st, r, reporting)
		}
		for li, l := range s.Lhs {
			// Reassigning a tracked variable: the old value's fate must
			// already be settled; a definite overwrite of an owned value
			// is a leak. A re-acquisition resets to Owned.
			if i := acqIndex(pass, acqs, l); i >= 0 {
				newState := ownNone
				if len(s.Rhs) == len(s.Lhs) {
					if call, ok := ast.Unparen(s.Rhs[li]).(*ast.CallExpr); ok {
						if _, _, ok := cfg.isAcquire(pass, call); ok {
							newState = ownOwned
						}
					}
					if isNilIdent(s.Rhs[li]) {
						newState = ownNone
					}
				}
				if reporting && st[i] == ownOwned && !acqs[i].deferRelease && !acqs[i].reportedLeak {
					acqs[i].reportedLeak = true
					pass.Reportf(s.Pos(), "%s is overwritten while still owned; release or transfer it first (acquired at %s)",
						acqs[i].obj.Name(), pass.Fset.Position(acqs[i].pos))
				}
				st[i] = newState
			} else {
				// Storing a tracked value *into* something (field, map,
				// index) is handled by transferExpr on the LHS base.
				transferExpr(pass, cfg, acqs, st, l, reporting)
			}
		}
		return

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if i := acqIndex(pass, acqs, r); i >= 0 {
				st[i] = ownEscaped
				continue
			}
			transferExpr(pass, cfg, acqs, st, r, reporting)
		}
		return

	case *ast.ExprStmt:
		transferExpr(pass, cfg, acqs, st, s.X, reporting)
		return

	case *ast.SendStmt:
		if i := acqIndex(pass, acqs, s.Value); i >= 0 {
			st[i] = ownEscaped
		} else {
			transferExpr(pass, cfg, acqs, st, s.Value, reporting)
		}
		transferExpr(pass, cfg, acqs, st, s.Chan, reporting)
		return

	case *ast.GoStmt:
		transferExpr(pass, cfg, acqs, st, s.Call, reporting)
		return

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						transferExpr(pass, cfg, acqs, st, v, reporting)
					}
				}
			}
		}
		return

	case *ast.IncDecStmt:
		transferExpr(pass, cfg, acqs, st, s.X, reporting)
		return

	case *ast.RangeStmt:
		transferExpr(pass, cfg, acqs, st, s.X, reporting)
		return
	}
	// Other statements: inspect for any embedded expressions
	// conservatively.
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			transferExpr(pass, cfg, acqs, st, e, reporting)
			return false
		}
		return true
	})
}

// transferExpr walks an expression, applying releases, escapes and
// use-after-release checks.
func transferExpr(pass *Pass, cfg *ownConfig, acqs []*acquisition, st []ownState, e ast.Expr, reporting bool) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		// Release call on a tracked value?
		if recv, ok := cfg.releaseOn(pass, e); ok {
			if i := acqIndex(pass, acqs, recv); i >= 0 {
				if reporting {
					if st[i] == ownReleased {
						pass.Reportf(e.Pos(), "%s released twice (%s acquired at %s)",
							acqs[i].obj.Name(), acqs[i].what, pass.Fset.Position(acqs[i].pos))
					} else if acqs[i].deferRelease {
						pass.Reportf(e.Pos(), "%s released explicitly and again by defer (%s acquired at %s)",
							acqs[i].obj.Name(), acqs[i].what, pass.Fset.Position(acqs[i].pos))
					}
				}
				if st[i] != ownEscaped {
					st[i] = ownReleased
				}
				return
			}
		}
		// Arguments: passing a tracked value transfers ownership.
		transferExpr(pass, cfg, acqs, st, e.Fun, reporting)
		for _, a := range e.Args {
			if i := acqIndex(pass, acqs, a); i >= 0 {
				useCheck(pass, acqs, st, i, a, reporting)
				st[i] = ownEscaped
				continue
			}
			transferExpr(pass, cfg, acqs, st, a, reporting)
		}

	case *ast.Ident:
		if i := acqIndex(pass, acqs, e); i >= 0 {
			useCheck(pass, acqs, st, i, e, reporting)
		}

	case *ast.SelectorExpr:
		// v.Method() receivers and v.Field reads are uses, not escapes.
		if i := acqIndex(pass, acqs, e.X); i >= 0 {
			useCheck(pass, acqs, st, i, e.X, reporting)
			return
		}
		transferExpr(pass, cfg, acqs, st, e.X, reporting)

	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if i := acqIndex(pass, acqs, e.X); i >= 0 {
				st[i] = ownEscaped // address taken: out of our hands
				return
			}
		}
		transferExpr(pass, cfg, acqs, st, e.X, reporting)

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if i := acqIndex(pass, acqs, v); i >= 0 {
				useCheck(pass, acqs, st, i, v, reporting)
				st[i] = ownEscaped
				continue
			}
			transferExpr(pass, cfg, acqs, st, v, reporting)
		}

	case *ast.FuncLit:
		// Capturing a tracked value inside a closure escapes it.
		walkShallowLit(e, func(id *ast.Ident) {
			if i := acqIdent(pass, acqs, id); i >= 0 {
				st[i] = ownEscaped
			}
		})

	case *ast.BinaryExpr:
		transferExpr(pass, cfg, acqs, st, e.X, reporting)
		transferExpr(pass, cfg, acqs, st, e.Y, reporting)

	case *ast.IndexExpr:
		transferExpr(pass, cfg, acqs, st, e.X, reporting)
		transferExpr(pass, cfg, acqs, st, e.Index, reporting)

	case *ast.SliceExpr:
		transferExpr(pass, cfg, acqs, st, e.X, reporting)

	case *ast.StarExpr:
		transferExpr(pass, cfg, acqs, st, e.X, reporting)

	case *ast.TypeAssertExpr:
		transferExpr(pass, cfg, acqs, st, e.X, reporting)

	case *ast.KeyValueExpr:
		transferExpr(pass, cfg, acqs, st, e.Value, reporting)
	}
}

// walkShallowLit visits every identifier inside a function literal
// (including nested literals — captures compose).
func walkShallowLit(lit *ast.FuncLit, fn func(*ast.Ident)) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			fn(id)
		}
		return true
	})
}

func acqIdent(pass *Pass, acqs []*acquisition, id *ast.Ident) int {
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		return -1
	}
	for i, a := range acqs {
		if a.obj == v {
			return i
		}
	}
	return -1
}

// useCheck flags uses of a definitely-released value.
func useCheck(pass *Pass, acqs []*acquisition, st []ownState, i int, at ast.Expr, reporting bool) {
	if reporting && st[i] == ownReleased {
		pass.Reportf(at.Pos(), "use of %s after release (%s acquired at %s)",
			acqs[i].obj.Name(), acqs[i].what, pass.Fset.Position(acqs[i].pos))
	}
}

// reportExit flags values still owned when a path leaves the function.
func reportExit(pass *Pass, acqs []*acquisition, st []ownState, blk *cfgBlock) {
	for i, a := range acqs {
		if a.deferRelease || a.reportedLeak {
			continue
		}
		if st[i] == ownOwned || st[i] == ownMaybe {
			a.reportedLeak = true
			qualifier := ""
			if st[i] == ownMaybe {
				qualifier = " on some paths"
			}
			pos := a.pos
			where := ""
			if blk.returnStmt != nil {
				where = " (escapes settlement at return on line " +
					itoa(pass.Fset.Position(blk.returnStmt.Pos()).Line) + ")"
			}
			pass.Reportf(pos, "%s is never released or transferred%s%s", a.what, qualifier, where)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
