package starlink_test

// API-compatibility guard for package starlink, in two parts:
//
//  1. TestPublicAPIGolden renders every exported declaration of the
//     package into a deterministic signature dump and compares it to
//     testdata/api.golden, so a PR that changes the public surface —
//     removes an identifier, changes a signature, adds a field — fails
//     until the golden file is regenerated deliberately with
//     `go test -run TestPublicAPIGolden -update .`.
//  2. TestNoInternalTypesInPublicAPI walks the same declarations and
//     fails if any exported signature, field, alias or declared type
//     references a type from an internal/ package: the public surface
//     must be expressible entirely in its own (and stdlib) terms, so
//     internals can evolve without breaking users.

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden, testdata/exposition.golden or testdata/dst_hashes.txt")

// parsePackage parses the non-test files of the root package.
func parsePackage(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no package files found")
	}
	return fset, files
}

// importMap maps local import names to import paths for one file.
func importMap(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// internalRefs reports every reference to a starlink/internal package
// inside a type expression.
func internalRefs(expr ast.Expr, imports map[string]string) []string {
	var refs []string
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if path, ok := imports[id.Name]; ok && strings.HasPrefix(path, "starlink/internal") {
			refs = append(refs, fmt.Sprintf("%s.%s (%s)", id.Name, sel.Sel.Name, path))
		}
		return true
	})
	return refs
}

// render prints a node without doc comments.
func render(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (&printer.Config{Mode: printer.UseSpaces, Tabwidth: 4}).Fprint(&buf, fset, node); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// exportedStruct returns a copy of st with unexported fields elided
// (they are not part of the public surface).
func exportedStruct(st *ast.StructType) *ast.StructType {
	out := *st
	fields := &ast.FieldList{}
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			fields.List = append(fields.List, f) // embedded: keep
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			g := *f
			g.Names = names
			g.Doc, g.Comment = nil, nil
			fields.List = append(fields.List, &g)
		}
	}
	out.Fields = fields
	return &out
}

// publicDecl is one exported declaration: its sort key and rendering.
type publicDecl struct {
	key  string
	text string
	// typeExprs are the type expressions the leak check inspects,
	// with the file's import map.
	typeExprs []ast.Expr
	imports   map[string]string
	isAlias   bool
}

// collectAPI walks the package files and gathers every exported
// declaration.
func collectAPI(t *testing.T, fset *token.FileSet, files []*ast.File) []publicDecl {
	t.Helper()
	var decls []publicDecl
	for _, f := range files {
		imports := importMap(f)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil && len(d.Recv.List) > 0 {
					rt := d.Recv.List[0].Type
					base := rt
					if star, ok := rt.(*ast.StarExpr); ok {
						base = star.X
					}
					id, ok := base.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue // method on unexported type: not public
					}
					recv = id.Name + "."
				}
				fn := *d
				fn.Body = nil
				fn.Doc = nil
				var exprs []ast.Expr
				for _, fl := range []*ast.FieldList{d.Type.Params, d.Type.Results} {
					if fl == nil {
						continue
					}
					for _, p := range fl.List {
						exprs = append(exprs, p.Type)
					}
				}
				decls = append(decls, publicDecl{
					key:       "func " + recv + d.Name.Name,
					text:      render(t, fset, &fn),
					typeExprs: exprs,
					imports:   imports,
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						cp := *s
						cp.Doc, cp.Comment = nil, nil
						if st, ok := cp.Type.(*ast.StructType); ok {
							cp.Type = exportedStruct(st)
						}
						var exprs []ast.Expr
						if st, ok := cp.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								exprs = append(exprs, fld.Type)
							}
						} else {
							exprs = append(exprs, cp.Type)
						}
						decls = append(decls, publicDecl{
							key:       "type " + s.Name.Name,
							text:      "type " + render(t, fset, &cp),
							typeExprs: exprs,
							imports:   imports,
							isAlias:   s.Assign.IsValid(),
						})
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							text := kind + " " + n.Name
							var exprs []ast.Expr
							if s.Type != nil {
								text += " " + render(t, fset, s.Type)
								exprs = append(exprs, s.Type)
							}
							decls = append(decls, publicDecl{
								key:       kind + " " + n.Name,
								text:      text,
								typeExprs: exprs,
								imports:   imports,
							})
						}
					}
				}
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	return decls
}

// TestPublicAPIGolden pins the exported surface of package starlink to
// testdata/api.golden.
func TestPublicAPIGolden(t *testing.T) {
	fset, files := parsePackage(t)
	decls := collectAPI(t, fset, files)
	var buf bytes.Buffer
	buf.WriteString("# Generated by `go test -run TestPublicAPIGolden -update .` — the exported API of package starlink.\n")
	for _, d := range decls {
		buf.WriteString(d.text)
		buf.WriteString("\n\n")
	}
	golden := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (run `go test -run TestPublicAPIGolden -update .`): %v", golden, err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("public API changed.\nIf intentional, regenerate with `go test -run TestPublicAPIGolden -update .`\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), string(want))
	}
}

// TestNoInternalTypesInPublicAPI fails when an exported declaration
// leaks a type from starlink/internal/... — including type aliases,
// which would pin internals into the public surface.
func TestNoInternalTypesInPublicAPI(t *testing.T) {
	fset, files := parsePackage(t)
	decls := collectAPI(t, fset, files)
	for _, d := range decls {
		if d.isAlias {
			t.Errorf("%s is a type alias; the public surface must use real types", d.key)
		}
		for _, expr := range d.typeExprs {
			for _, ref := range internalRefs(expr, d.imports) {
				t.Errorf("%s leaks internal type %s", d.key, ref)
			}
		}
	}
}
