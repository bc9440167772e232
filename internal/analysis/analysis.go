// Package analysis is Starlink's static-analysis suite: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis (which the
// build environment does not vendor) plus the five project analyzers
// that machine-check the runtime's ownership and concurrency
// invariants:
//
//   - leasecheck: every Packet.TakeLease result is Released exactly
//     once on all control-flow paths, never used after release, and
//     Packet.Data is not retained past the handler without a lease;
//   - poolcheck: pooled messages (message.NewPooled) reach a Release or
//     transfer ownership on every path, with no use-after-release;
//   - domaincheck: transport read loops bind a frame-local lease flag
//     before dispatching a leased packet (the PR 5 TOCTOU class), and
//     endpoint callbacks of undetached nodes spawn no goroutines;
//   - errcmp: cross-package errors are compared with errors.Is, never
//     == / != against sentinel variables or by matching Error() text;
//   - hotpathalloc: functions marked //starlink:hotpath are free of
//     fmt calls, non-constant string concatenation, capturing closures
//     and unbounded appends — the structural guard behind the
//     AllocsPerRun regression tests.
//
// The suite is exposed through cmd/starlink-vet, which runs standalone
// (starlink-vet ./...) and as a `go vet -vettool` backend. Deliberate
// exceptions are suppressed — and thereby enumerated — with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it; an ignore without a reason
// does not suppress.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run reports the analyzer's diagnostics through pass.Report.
	Run func(pass *Pass) error
	// SkipTests excludes *_test.go files from the analysis. The
	// ownership analyzers set it: tests deliberately probe the
	// ownership machinery (double-release panics, lease transfer
	// across goroutines) in ways that are wrong in production code.
	SkipTests bool
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Suite is the full starlink-vet analyzer suite, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		LeaseCheck,
		PoolCheck,
		DomainCheck,
		ErrCmp,
		HotPathAlloc,
	}
}

// ---------------------------------------------------------------------
// Type and AST helpers shared by the analyzers
// ---------------------------------------------------------------------

// namedType unwraps pointers and returns the named type's package path
// and name, or "" when the type is unnamed.
func namedType(t types.Type) (pkgPath, name string) {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// isMethodCall reports whether call invokes a method with the given
// name on a value whose (pointer-unwrapped) named type is
// pkgPath.typeName. It returns the receiver expression when it matches.
func isMethodCall(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) (recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != method {
		return nil, false
	}
	selInfo, found := info.Selections[sel]
	if !found {
		return nil, false // qualified identifier, not a method
	}
	if selInfo.Kind() != types.MethodVal {
		return nil, false
	}
	p, n := namedType(selInfo.Recv())
	if p != pkgPath || n != typeName {
		return nil, false
	}
	return sel.X, true
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "fmt".Sprintf).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// calleeFunc resolves the called *types.Func of a call expression, or
// nil for calls through function values, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcDirectives returns the //starlink:* directive names attached to a
// function declaration's doc comment (e.g. "hotpath" for
// //starlink:hotpath).
func funcDirectives(decl *ast.FuncDecl) []string {
	if decl.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range decl.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//starlink:"); ok {
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				rest = rest[:i]
			}
			out = append(out, strings.TrimSpace(rest))
		}
	}
	return out
}

func hasDirective(decl *ast.FuncDecl, name string) bool {
	for _, d := range funcDirectives(decl) {
		if d == name {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file position is in a *_test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
}

// analyzedFiles returns the files the analyzer should inspect,
// honouring SkipTests.
func (p *Pass) analyzedFiles() []*ast.File {
	if !p.Analyzer.SkipTests {
		return p.Files
	}
	var out []*ast.File
	for _, f := range p.Files {
		if !isTestFile(p.Fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// eachFuncDecl invokes fn for every function declaration with a body in
// the analyzed files.
func (p *Pass) eachFuncDecl(fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, f := range p.analyzedFiles() {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}
