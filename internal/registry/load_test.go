package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixturesDir is the shipped on-disk model set for the alternate
// Fig. 4 case.
const fixturesDir = "../../examples/models"

func TestClassify(t *testing.T) {
	cases := map[string]DocKind{
		`<MDL protocol="X">`:                   KindMDL,
		`  <Automaton protocol="X">`:           KindAutomaton,
		`<MergedAutomaton name="x">`:           KindMerged,
		`<?xml version="1.0"?><MDL x>`:         KindMDL,
		`<Something>`:                          KindUnknown,
		`plain text`:                           KindUnknown,
		"\n\t<MergedAutomaton name=*>":         KindMerged,
		`<?xml version="1.0"?><Banana>`:        KindUnknown,
		"<!-- Fig. 1 -->\n<Automaton>":         KindAutomaton,
		`<?xml?><!-- a --><!-- b --><MDL>`:     KindMDL,
		`<!-- unterminated <MergedAutomaton>`:  KindUnknown,
		`<!-- <MDL> in a comment --><Banana/>`: KindUnknown,
	}
	for doc, want := range cases {
		if got := Classify(doc); got != want {
			t.Errorf("Classify(%q) = %v, want %v", doc, got, want)
		}
	}
}

// TestLoadFSFixtures loads the shipped examples/models fixtures over the
// builtins: the alternate automaton and case must apply, and loading the
// same directory again must be an identity no-op for every file.
func TestLoadFSFixtures(t *testing.T) {
	reg, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	gen := reg.Generation()
	res, err := LoadFS(reg, os.DirFS(fixturesDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MDLs) != 0 || res.Unchanged != 0 {
		t.Errorf("fixtures hold no MDL and nothing loaded yet: %+v", res)
	}
	if len(res.Automata) != 1 || res.Automata[0] != "slp-server-alt" {
		t.Errorf("automata applied = %v", res.Automata)
	}
	if len(res.Cases) != 1 || res.Cases[0] != "slp-to-upnp-alt" {
		t.Errorf("cases applied = %v", res.Cases)
	}
	if reg.Generation() == gen {
		t.Error("effective load must bump the generation")
	}
	if _, err := reg.Compiled("slp-to-upnp-alt"); err != nil {
		t.Fatalf("alt case does not compile: %v", err)
	}

	// Loading a second time must be a complete no-op.
	gen = reg.Generation()
	res, err = LoadFS(reg, os.DirFS(fixturesDir))
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed() || res.Unchanged != 2 {
		t.Errorf("reload should be all-unchanged: %+v", res)
	}
	if reg.Generation() != gen {
		t.Error("no-op load must not bump the generation")
	}
}

func TestLoadFSMissingAndBadDocs(t *testing.T) {
	reg, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := LoadFS(reg, os.DirFS(filepath.Join(t.TempDir(), "missing"))); err != nil || res.Changed() {
		t.Errorf("missing dir should load as empty, got %+v, %v", res, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.xml"), []byte("<Banana/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(reg, os.DirFS(dir)); err == nil || !strings.Contains(err.Error(), "bad.xml") {
		t.Errorf("unclassifiable file should fail naming the file, got %v", err)
	}

	// A file that fails to validate stops the load; what applied before
	// it (an automaton sorts before every merged automaton) stays.
	dir = t.TempDir()
	alt, err := os.ReadFile(filepath.Join(fixturesDir, "slp-server-alt.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"slp-server-alt.xml": string(alt),
		"broken.xml":         `<MergedAutomaton name="broken" initiator="SLP"><AutomatonRef protocol="SLP" name="ghost"/></MergedAutomaton>`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadFS(reg, os.DirFS(dir)); err == nil || !strings.Contains(err.Error(), "broken.xml") {
		t.Errorf("invalid merged automaton should fail naming the file, got %v", err)
	}
	if _, err := reg.Automaton("slp-server-alt"); err != nil {
		t.Errorf("models applied before the failure must stay applied: %v", err)
	}
}
