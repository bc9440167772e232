package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starlink/internal/registry"
)

// TestCheckRefusesWhatTheLoaderRefuses: check applies a file the way a
// model directory load does, so it runs the equivalence check (paper
// eq. 1) on a merged automaton and needs an automaton's MDL loaded, and
// accepts every shipped model.
func TestCheckRefusesWhatTheLoaderRefuses(t *testing.T) {
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	err = check(reg, filepath.Join("testdata", "broken-equivalence.xml"))
	if err == nil || !strings.Contains(err.Error(), `mandatory field "DomainName"`) {
		t.Errorf("broken equivalence: err = %v", err)
	}

	orphan := filepath.Join(t.TempDir(), "coap-client.xml")
	doc := `<Automaton protocol="CoAP" initial="s0" finals="s1"><State name="s0"/><State name="s1"/>` +
		`<Transition from="s0" to="s1" action="send" message="Get"/></Automaton>`
	if err := os.WriteFile(orphan, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(reg, orphan); err == nil || !strings.Contains(err.Error(), "needs MDL") {
		t.Errorf("automaton without its MDL: err = %v", err)
	}

	shipped, err := filepath.Glob("../../internal/models/*.xml")
	if err != nil || len(shipped) == 0 {
		t.Fatalf("shipped models: %v, %v", shipped, err)
	}
	for _, path := range shipped {
		if err := check(reg, path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
