package mdllint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRulesRegistry pins the registry shape: unique names, docs, a
// runner per rule, and the schema tier listed before the lint tier so
// `mdlc validate` output order stays stable.
func TestRulesRegistry(t *testing.T) {
	rules := Rules()
	if len(rules) < 7 {
		t.Fatalf("registry has %d rules, want at least 7", len(rules))
	}
	seen := map[string]bool{}
	lintSeen := false
	for _, r := range rules {
		if r.Name == "" || r.Doc == "" || r.Run == nil {
			t.Errorf("rule %+v incomplete", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Tier == TierLint {
			lintSeen = true
		} else if lintSeen {
			t.Errorf("schema-tier rule %q listed after a lint-tier rule", r.Name)
		}
	}
	for _, name := range []string{"model-load", "case-compile", "dead-end-state", "translation-field", "discriminator-collision"} {
		if !seen[name] {
			t.Errorf("registry missing rule %q", name)
		}
	}
}

// TestShippedModelsClean lints the shipped example directory over the
// builtins: all seven cases must compile and nothing above Info may be
// reported. The Info-level diagnostics are the deliberate one-to-many
// color sharing between cases entering on the same protocol.
func TestShippedModelsClean(t *testing.T) {
	ctx, diags, err := Run("../../examples/models", TierLint)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.LoadErr != nil {
		t.Fatalf("examples/models failed to load: %v", ctx.LoadErr)
	}
	if got := len(ctx.Reg.MergedNames()); got != 7 {
		t.Fatalf("got %d cases, want 7 (6 builtin + slp-to-upnp-alt)", got)
	}
	for _, d := range diags {
		if d.Severity > SevInfo {
			t.Errorf("shipped models not clean: %s", d)
		}
	}
	// The SLP one-to-many sharing (slp-to-bonjour and slp-to-upnp both
	// enter on the SLP multicast color) must be visible as Info.
	found := false
	for _, d := range diags {
		if d.Rule == "discriminator-collision" && d.Severity == SevInfo &&
			strings.Contains(d.Model, "slp-to-bonjour") && strings.Contains(d.Model, "slp-to-upnp") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an Info discriminator-collision for slp-to-bonjour/slp-to-upnp, got %v", diags)
	}
}

// TestBrokenModels lints a directory that loads and compiles cleanly
// (the schema tier passes) but carries one instance of every lint-tier
// defect class.
func TestBrokenModels(t *testing.T) {
	ctx, diags, err := Run("testdata/broken", TierLint)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.LoadErr != nil {
		t.Fatalf("testdata/broken must load (its defects are lint-tier): %v", ctx.LoadErr)
	}
	byRule := map[string][]Diagnostic{}
	for _, d := range diags {
		byRule[d.Rule] = append(byRule[d.Rule], d)
	}
	if len(byRule["model-load"])+len(byRule["case-compile"]) != 0 {
		t.Errorf("schema tier should be clean on testdata/broken: %v", diags)
	}
	wantRule := func(rule string, sev Severity, frag string) {
		t.Helper()
		for _, d := range byRule[rule] {
			if d.Severity == sev && strings.Contains(d.Message, frag) {
				return
			}
		}
		t.Errorf("missing %s/%s diagnostic containing %q; got %v", rule, sev, frag, byRule[rule])
	}
	wantRule("unknown-message", SevError, `message "BRKGoodbye"`)
	wantRule("dead-end-state", SevWarning, `state "s2"`)
	wantRule("translation-field", SevError, `message "HTTPBogus"`)
	wantRule("translation-field", SevError, `field "LangTagg"`)
	wantRule("shadowed-message", SevError, `"BRKHelloTwin" is unreachable`)
	wantRule("unmatchable-rule", SevError, "does not fit the 8-bit field")
	wantRule("lossy-roundtrip", SevError, "unaligned width 12 bits")
	wantRule("lossy-roundtrip", SevError, "80 bits wide")
	wantRule("lossy-roundtrip", SevError, `length from "NameLen"`)

	distinctKinds := 0
	for rule, ds := range byRule {
		if rule == "discriminator-collision" { // builtin Info sharing, not a defect
			continue
		}
		if len(ds) > 0 {
			distinctKinds++
		}
	}
	if distinctKinds < 3 {
		t.Errorf("want at least 3 distinct diagnostic kinds, got %d: %v", distinctKinds, byRule)
	}
	if max, ok := MaxSeverity(diags); !ok || max != SevError {
		t.Errorf("max severity = %v/%v, want error", max, ok)
	}
}

// TestSchemaTierSubset runs the broken directory at the schema tier
// only: it loads and compiles, so `mdlc validate` accepts what
// `mdlc lint` rejects — the two tiers are genuinely different.
func TestSchemaTierSubset(t *testing.T) {
	_, diags, err := Run("testdata/broken", TierSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("schema tier should pass testdata/broken, got %v", diags)
	}
}

// TestInvalidModelsSchemaTier checks the validate contract: a document
// that fails load-time validation surfaces as a model-load error at
// the schema tier.
func TestInvalidModelsSchemaTier(t *testing.T) {
	ctx, diags, err := Run("testdata/invalid", TierSchema)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.LoadErr == nil {
		t.Fatal("testdata/invalid should fail to load")
	}
	if len(diags) != 1 || diags[0].Rule != "model-load" || diags[0].Severity != SevError {
		t.Fatalf("want exactly one model-load error, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "bad-mdl.xml") {
		t.Errorf("model-load diagnostic should name the failing file: %s", diags[0])
	}
}

// TestSeverityStrings pins the rendered forms used by mdlc output.
func TestSeverityStrings(t *testing.T) {
	for sev, want := range map[Severity]string{SevInfo: "info", SevWarning: "warning", SevError: "error"} {
		if got := sev.String(); got != want {
			t.Errorf("Severity(%d).String() = %q, want %q", sev, got, want)
		}
	}
	d := Diagnostic{Rule: "dead-end-state", Severity: SevWarning, Model: "m", Message: "x"}
	if got := d.String(); got != "warning: dead-end-state: m: x" {
		t.Errorf("Diagnostic.String() = %q", got)
	}
}

// TestTxIDRule lints one fixture per way a txid declaration can be
// wrong; each loads and compiles, so only the lint tier sees it.
func TestTxIDRule(t *testing.T) {
	ctx, diags, err := Run("testdata/txid", TierLint)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.LoadErr != nil {
		t.Fatalf("testdata/txid must load: %v", ctx.LoadErr)
	}
	want := map[string]string{
		"txid-missing":                `"Serial" is not a header field`,
		"txid-narrow":                 `"Version" of MDL SLP is 8 bits wide`,
		"txid-string":                 `"LangTag" of MDL SLP is a String no case assigns from session input`,
		"slp-to-upnp-searches-all":    `sets SSDPMSearch.ST, the String txid of its color, to a constant`,
		"txid-stream":                 `on a tcp color`,
		"txid-server":                 `server-role send of DNSResponse`,
		"slp-to-bonjour-assigns-txid": `targets DNSQuestion.ID`,
	}
	for _, d := range diags {
		if d.Severity == SevInfo {
			continue
		}
		frag, ok := want[d.Model]
		if d.Rule != "txid" || d.Severity != SevError || !ok || !strings.Contains(d.Message, frag) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
		delete(want, d.Model)
	}
	for model, frag := range want {
		t.Errorf("missing txid error on %s containing %q", model, frag)
	}
}

// TestDiscriminatorCollision lints two binary protocols entering on one
// color. Their Ask messages share Op=1, so a composed CLAAsk classifies
// as CLBAsk under CLB's parser: one Error for the pair. With the values
// apart, the sharing is Info.
func TestDiscriminatorCollision(t *testing.T) {
	collisions := func(dir string) []Diagnostic {
		t.Helper()
		ctx, diags, err := Run(dir, TierLint)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.LoadErr != nil {
			t.Fatalf("%s must load: %v", dir, ctx.LoadErr)
		}
		var out []Diagnostic
		for _, d := range diags {
			if d.Rule == "discriminator-collision" && strings.Contains(d.Model, "cl") && strings.Contains(d.Message, "9500") {
				out = append(out, d)
			} else if d.Severity > SevInfo {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		}
		return out
	}
	got := collisions("testdata/collision")
	if len(got) != 1 || got[0].Severity != SevError || !strings.Contains(got[0].Message, "CLA/CLAAsk and CLB/CLBAsk") {
		t.Fatalf("want one Error naming CLA/CLAAsk and CLB/CLBAsk, got %v", got)
	}

	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/collision")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join("testdata/collision", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "clb-mdl.xml" {
			src = bytes.Replace(src, []byte("<Rule>Op=1</Rule>"), []byte("<Rule>Op=4</Rule>"), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got = collisions(dir)
	if len(got) != 1 || got[0].Severity != SevInfo || !strings.Contains(got[0].Message, "share entry color") {
		t.Fatalf("want one Info naming the shared color, got %v", got)
	}
}
