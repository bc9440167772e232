package analysis

// A miniature analysistest: fixture packages under testdata/src/<name>
// carry `// want "regexp"` comments on the lines where an analyzer must
// report, and nothing anywhere else. Each fixture package is
// type-checked against the real module packages (netapi, message,
// serrors) through gc export data produced by `go list -export`, so
// the fixtures exercise exactly the types the analyzers key on.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureImporter lazily builds one shared importer with export data
// for the module packages fixtures may import plus their stdlib deps.
var fixtureImporter = sync.OnceValues(func() (exportImporter, error) {
	fset := token.NewFileSet()
	pkgs, err := listExports("../..",
		"starlink/internal/netapi",
		"starlink/internal/message",
		"starlink/internal/serrors",
		"errors", "fmt", "io", "os", "strings",
	)
	if err != nil {
		return exportImporter{}, err
	}
	return newExportImporter(fset, func(path string) (io.ReadCloser, error) {
		file, ok := pkgs[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
})

// fixtureFset is shared with fixtureImporter's FileSet deliberately
// NOT: positions of fixture files come from their own FileSet; the
// importer's FileSet only affects positions inside export data, which
// the analyzers never report against.

type wantDiag struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// runFixture type-checks testdata/src/<dir>, runs the analyzer through
// RunAnalyzers (so lint:ignore suppression is part of what fixtures can
// assert), and diffs diagnostics against the `// want` expectations.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	imp, err := fixtureImporter()
	if err != nil {
		t.Fatalf("building fixture importer: %v", err)
	}
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var wants []*wantDiag
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(root, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &wantDiag{file: path, line: i + 1, re: re})
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", root)
	}

	pkg, info, err := typecheck(fset, dir, files, imp)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, err := RunAnalyzers(&Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// listExports resolves patterns to export-data files, dir-relative.
func listExports(dir string, patterns ...string) (map[string]string, error) {
	pkgs, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

func TestDomainCheckFixtures(t *testing.T)  { runFixture(t, DomainCheck, "domaincheck") }
func TestErrCmpFixtures(t *testing.T)       { runFixture(t, ErrCmp, "errcmp") }
func TestHotPathAllocFixtures(t *testing.T) { runFixture(t, HotPathAlloc, "hotpathalloc") }
func TestSuppressionFixtures(t *testing.T)  { runFixture(t, ErrCmp, "suppress") }
func TestSuiteHasThreeAnalyzers(t *testing.T) {
	if n := len(Suite()); n != 3 {
		t.Fatalf("Suite() has %d analyzers, want 3", n)
	}
}
