package registry

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"starlink/internal/engine"
	"starlink/internal/mdl"
	"starlink/internal/models"
	"starlink/internal/simnet"
)

func TestBuiltinLoadsAllModels(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Protocols(); len(got) != 4 {
		t.Fatalf("protocols = %v", got)
	}
	if got := r.AutomatonNames(); len(got) != 8 {
		t.Fatalf("automata = %v", got)
	}
	want := []string{"bonjour-to-slp", "bonjour-to-upnp", "slp-to-bonjour",
		"slp-to-upnp", "upnp-to-bonjour", "upnp-to-slp"}
	got := r.MergedNames()
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
}

// modelFile returns one shipped model document by base name.
func modelFile(t testing.TB, name string) string {
	t.Helper()
	data, err := models.FS.ReadFile(name + ".xml")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestBuiltinIsTheFiles: the builtin models are exactly the embedded
// files (protocols, automaton model names and case names), and no Go
// file under internal/models holds model text.
func TestBuiltinIsTheFiles(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	files, err := fs.ReadDir(models.FS, ".")
	if err != nil {
		t.Fatal(err)
	}
	var protocols, automata, cases []string
	for _, f := range files {
		name := strings.TrimSuffix(f.Name(), ".xml")
		doc := modelFile(t, name)
		switch Classify(doc) {
		case KindMDL:
			spec, err := mdl.ParseXMLString(doc)
			if err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			protocols = append(protocols, spec.Protocol)
		case KindAutomaton:
			automata = append(automata, name)
		case KindMerged:
			cases = append(cases, name)
		default:
			t.Errorf("%s: not a model document", f.Name())
		}
	}
	for _, c := range []struct {
		what      string
		files, in []string
	}{
		{"protocols", protocols, r.Protocols()},
		{"automata", automata, r.AutomatonNames()},
		{"cases", cases, r.MergedNames()},
	} {
		sort.Strings(c.files)
		if fmt.Sprint(c.files) != fmt.Sprint(c.in) {
			t.Errorf("%s: files %v, Builtin %v", c.what, c.files, c.in)
		}
	}
	if r.Generation() != 18 {
		t.Errorf("Builtin generation = %d, want 18 (one per document)", r.Generation())
	}

	goFiles, err := filepath.Glob("../models/*.go")
	if err != nil || len(goFiles) == 0 {
		t.Fatalf("Go files under internal/models: %v, %v", goFiles, err)
	}
	for _, path := range goFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range []string{"<MDL", "<Automaton", "<MergedAutomaton"} {
			if strings.Contains(string(src), root) {
				t.Errorf("%s holds model text (%s)", path, root)
			}
		}
	}
}

func TestBuiltinMergedCompile(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.MergedNames() {
		m, err := r.Merged(name)
		if err != nil {
			t.Fatal(err)
		}
		program, err := m.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(program) < 5 {
			t.Fatalf("%s: suspiciously short program (%d steps)", name, len(program))
		}
		if _, err := r.Codecs(m); err != nil {
			t.Fatalf("%s codecs: %v", name, err)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	r := New()
	if err := r.LoadAutomaton("x", `<Automaton protocol="SLP" initial="a" finals="a"><State name="a"/></Automaton>`); err == nil || !strings.Contains(err.Error(), "MDL") {
		// Either validation fails (no transitions needed?) or MDL missing.
		if err == nil {
			t.Fatal("automaton without MDL should fail")
		}
	}
	if _, err := r.Merged("ghost"); err == nil {
		t.Fatal("unknown merged should fail")
	}
	if _, err := r.Spec("ghost"); err == nil {
		t.Fatal("unknown spec should fail")
	}
	if _, err := r.Automaton("ghost"); err == nil {
		t.Fatal("unknown automaton should fail")
	}
}

func TestRegistryDuplicates(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadMDL(`<MDL protocol="SLP" dialect="binary"><Types><A>Integer</A></Types><Header type="SLP"><A>8</A></Header><Message type="M"><Rule>A=1</Rule></Message></MDL>`); err == nil {
		t.Fatal("duplicate MDL should fail")
	}
}

// TestModelSizes checks the paper's §V-C claim that merged automata
// are compact models ("typically, these automata are around 100 lines
// of XML, but this depends on the complexity of the translation").
func TestModelSizes(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.MergedNames() {
		lines := strings.Count(modelFile(t, name), "\n")
		if lines < 20 || lines > 350 {
			t.Errorf("%s: %d lines of XML, outside the paper's model-scale claim", name, lines)
		}
		t.Logf("%s: %d lines of XML", name, lines)
	}
}

// altCaseDoc derives a distinct, valid merged-automaton document from
// a builtin case by renaming it.
func altCaseDoc(t testing.TB, name string) string {
	return strings.Replace(modelFile(t, "slp-to-upnp"), `name="slp-to-upnp"`, `name="`+name+`"`, 1)
}

func TestReplaceUnloadGeneration(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	gen := r.Generation()

	// Identity is byte identity: the same document is a no-op with no
	// generation bump, and the same document plus one "\n" is a change.
	doc := modelFile(t, "slp-to-upnp")
	changed, err := r.ReplaceMerged(doc)
	if err != nil {
		t.Fatal(err)
	}
	if changed || r.Generation() != gen {
		t.Fatalf("identity replace mutated: changed=%v gen %d -> %d", changed, gen, r.Generation())
	}
	changed, err = r.ReplaceMerged(doc + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if !changed || r.Generation() != gen+1 {
		t.Fatalf(`replace with an added "\n" must apply: changed=%v gen %d -> %d`, changed, gen, r.Generation())
	}
	gen = r.Generation()

	// New case via Replace: loads it.
	changed, err = r.ReplaceMerged(altCaseDoc(t, "alt-case"))
	if err != nil {
		t.Fatal(err)
	}
	if !changed || r.Generation() == gen {
		t.Fatal("effective replace must mutate and bump the generation")
	}
	c1, err := r.Compiled("alt-case")
	if err != nil {
		t.Fatal(err)
	}
	if c2, _ := r.Compiled("alt-case"); c2 != c1 {
		t.Error("unchanged case must return the cached CompiledCase pointer")
	}

	// Replacing a referenced automaton re-resolves dependents: the
	// cached artifacts must be invalidated.
	changed, err = r.ReplaceAutomaton("slp-server", modelFile(t, "slp-server")+"<!-- touched -->")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("changed automaton doc should apply")
	}
	c3, err := r.Compiled("alt-case")
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Error("automaton replace must invalidate dependent compiled cases")
	}

	// Unload removes the case and its cache entry.
	if err := r.Unload("alt-case"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Merged("alt-case"); err == nil {
		t.Error("unloaded case still resolves")
	}
	if _, err := r.Compiled("alt-case"); err == nil {
		t.Error("unloaded case still compiles")
	}
	if err := r.Unload("alt-case"); err == nil {
		t.Error("double unload should fail")
	}
}

func TestCompiledCaseArtifacts(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Compiled("slp-to-upnp")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Program) < 5 || c.Merged.Name != "slp-to-upnp" {
		t.Fatalf("compiled artifacts incomplete: %+v", c)
	}
	if _, ok := c.Entries["SLP"]; !ok {
		t.Errorf("entries = %v", c.Entries)
	}
	for _, proto := range []string{"SLP", "SSDP", "HTTP"} {
		if c.Codecs[proto] == nil {
			t.Errorf("missing codec for %s", proto)
		}
	}
	// The compiled program is the merged automaton's memoized one: no
	// recompilation happened to build the cache entry.
	program, err := c.Merged.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if &program[0] != &c.Program[0] {
		t.Error("CompiledCase.Program is not the memoized program")
	}
}

// TestConcurrentMutation hammers the registry from parallel goroutines
// — loads, identity and effective replaces, unloads, compiled-cache
// reads and engine deployments — and relies on the race detector to
// catch unsynchronised access.
func TestConcurrentMutation(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	sim := simnet.New()
	const workers = 4
	const iters = 50
	var docs [workers]string
	for w := range docs {
		docs[w] = altCaseDoc(t, fmt.Sprintf("race-case-%d", w))
	}

	var wg sync.WaitGroup
	// Mutators: each owns a distinct case name, so loads/unloads
	// interleave without stepping on each other's expectations.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("race-case-%d", w)
			doc := docs[w]
			for i := 0; i < iters; i++ {
				if _, err := r.ReplaceMerged(doc); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Compiled(name); err != nil {
					t.Error(err)
					return
				}
				if err := r.Unload(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers: list, resolve and compile the stable builtin cases.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, name := range r.MergedNames() {
					if strings.HasPrefix(name, "race-case") {
						continue // may be mid-unload
					}
					if _, err := r.Compiled(name); err != nil {
						t.Error(err)
						return
					}
				}
				_ = r.Protocols()
				_ = r.AutomatonNames()
				_ = r.Generation()
			}
		}()
	}
	// Deployers: build engines from the compiled cache in parallel
	// with the mutators.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node, err := sim.NewNode(fmt.Sprintf("10.0.9.%d", w+1))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters/2; i++ {
				c, err := r.Compiled("slp-to-bonjour")
				if err != nil {
					t.Error(err)
					return
				}
				eng, err := engine.New(node, c.Merged, c.Codecs)
				if err != nil {
					t.Error(err)
					return
				}
				eng.Start()
				if err := eng.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReplaceAutomatonFailedReresolve checks the consistency contract
// when a replaced model breaks its dependents: the replace reports the
// failing cases, bumps the generation, and the dependents keep serving
// their previous (still-valid) models until a corrected document
// converges the registry.
func TestReplaceAutomatonFailedReresolve(t *testing.T) {
	r, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	good := modelFile(t, "slp-server")
	// Valid standalone, but its state names no longer match the δ
	// references of the slp-* cases.
	broken := strings.ReplaceAll(good, "s0", "t0")
	broken = strings.ReplaceAll(broken, "s1", "t1")

	gen := r.Generation()
	changed, err := r.ReplaceAutomaton("slp-server", broken)
	if !changed || err == nil {
		t.Fatalf("breaking replace: changed=%v err=%v", changed, err)
	}
	if !strings.Contains(err.Error(), "slp-to-upnp") || !strings.Contains(err.Error(), "slp-to-bonjour") {
		t.Errorf("error should name every failing case, got: %v", err)
	}
	if r.Generation() == gen {
		t.Error("failed re-resolve is still a mutation and must bump the generation")
	}
	// The dependent cases kept their previous models and still deploy.
	c, err := r.Compiled("slp-to-upnp")
	if err != nil {
		t.Fatalf("dependent case stopped compiling after failed replace: %v", err)
	}
	if _, ok := c.Entries["SLP"]; !ok {
		t.Errorf("stale-model entries = %v", c.Entries)
	}

	// Restoring the original document converges everything.
	changed, err = r.ReplaceAutomaton("slp-server", good)
	if !changed || err != nil {
		t.Fatalf("restore: changed=%v err=%v", changed, err)
	}
	for _, name := range r.MergedNames() {
		if _, err := r.Compiled(name); err != nil {
			t.Errorf("%s does not compile after restore: %v", name, err)
		}
	}
}

// TestBuiltinLoadAllocs bounds what loading the shipped models costs a
// set-up: every deployment pays it, and each merged document is decoded
// in one XML pass (14 008 allocations when the translation logic was
// captured as text and decoded a second time).
func TestBuiltinLoadAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Builtin(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("registry.Builtin(): %.0f allocs", avg)
	if avg > 11000 {
		t.Fatalf("registry.Builtin() allocates %.0f, want <= 11000", avg)
	}
}
