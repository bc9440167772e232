package dst

import (
	"strings"
	"testing"
	"time"

	"starlink/internal/netapi"
)

// testConfig points reload scenarios at the repo's models directory.
func testConfig() Config { return Config{ModelsDir: "../../examples/models"} }

// smallScenario is a fast two-case workload used by the determinism
// tests: big enough to exercise ambiguous dispatch and both engines,
// small enough to run many times.
func smallScenario(rules ...netapi.FaultRule) *Scenario {
	sc := &Scenario{
		Name:    "small",
		Cases:   []string{"slp-to-upnp", "bonjour-to-slp"},
		Clients: 2,
		Stagger: 3 * time.Millisecond,
	}
	if len(rules) > 0 {
		sc.Faults = &netapi.FaultPlan{Rules: rules}
	}
	return sc
}

func TestScenarioRoundTrip(t *testing.T) {
	sc, err := ParseScenario("scenario g\ncase a\nclients 1\nfault to=10.0.0.5 proto=udp corrupt=0.2 truncate=0.1\n")
	if err != nil {
		t.Fatal(err)
	}
	if r := sc.Faults.Rules[0]; r.Corrupt != 0.2 || r.Truncate != 0.1 {
		t.Errorf("corrupt/truncate parsed as %g/%g, want 0.2/0.1", r.Corrupt, r.Truncate)
	}
	for name, sc := range Builtin() {
		text := FormatScenario(sc)
		got, err := ParseScenario(text)
		if err != nil {
			t.Fatalf("%s: parse formatted scenario: %v\n%s", name, err, text)
		}
		if again := FormatScenario(got); again != text {
			t.Errorf("%s: format not stable:\n%s\nvs\n%s", name, text, again)
		}
	}
}

func TestScenarioParseErrors(t *testing.T) {
	for _, bad := range []string{
		"scenario x\ncase a\nclients nope\n",                  // bad int
		"scenario x\ncase a\nclients 1\nwat 3\n",              // unknown key
		"scenario x\n",                                        // no cases
		"scenario x\ncase a\n",                                // cases but no clients
		"scenario x\ncase a\nclients 1\nexpect completed>1\n", // bad op
		"scenario x\ncase a\nclients 1\nexpect nonsense>=1\n", // unknown counter
		"scenario x\ncase a\nclients 1\naltclients 1\n",       // alt without reload
		"scenario x\ncase a\nclients 1\nfault loss=2\n",       // bad fault
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario accepted %q", bad)
		}
	}
}

func TestBuiltinScenariosValidate(t *testing.T) {
	if len(SweepSet) != 8 {
		t.Fatalf("sweep set has %d scenarios, want the five fault modes, garbage, requester-reuse and ssdp-reuse", len(SweepSet))
	}
	for _, name := range SweepSet {
		if _, err := Lookup(name); err != nil {
			t.Errorf("sweep scenario %s: %v", name, err)
		}
	}
	for name, sc := range Builtin() {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin scenario %s invalid: %v", name, err)
		}
		if name != sc.Name {
			t.Errorf("scenario registered as %q names itself %q", name, sc.Name)
		}
	}
}

// TestRunDeterminism is the heart of the DST contract: one (scenario,
// seed) pair always produces the same delivery-event trace.
func TestRunDeterminism(t *testing.T) {
	sc := smallScenario(netapi.FaultRule{Proto: "udp", Loss: 0.2, Duplicate: 0.2})
	a, err := Run(sc, 7, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 7, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed diverged: %016x vs %016x\n%s",
			a.TraceHash, b.TraceHash, firstDivergence(a.TraceLines, b.TraceLines))
	}
	if len(a.TraceLines) == 0 {
		t.Fatal("run recorded no trace lines")
	}
	// The fault plane must actually be in the schedule: a 20% loss /
	// 20% duplication plan over hundreds of datagrams leaves marks.
	var sawDrop, sawDup bool
	for _, line := range a.TraceLines {
		if strings.HasSuffix(line, "drop loss") {
			sawDrop = true
		}
		if strings.HasSuffix(line, " dup") {
			sawDup = true
		}
	}
	if !sawDrop || !sawDup {
		t.Fatalf("fault plan left no trace marks (drop=%v dup=%v) across %d lines",
			sawDrop, sawDup, len(a.TraceLines))
	}
	if a.Counter("started") == 0 {
		t.Fatal("no sessions started — the workload never reached the bridge")
	}
	c, err := Run(sc, 8, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical traces — seed is not reaching the schedule")
	}
}

// TestRegressionDeployOrderDeterminism pins the fix for the first bug
// this rig surfaced: the dispatcher deployed cases, bound listeners
// and tore down stale deployments in map-iteration order, so which
// socket drew which ephemeral port — and, on mid-run Sync, the order
// of traced close events — varied between same-seed runs. The loss
// scenario (all six cases, maximal listener sharing) and the
// reload-partition scenario (mid-run Sync) cover both paths; the seeds
// reproduced the divergence roughly every other run before the fix.
func TestRegressionDeployOrderDeterminism(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		seed     int64
	}{{"loss", 7}, {"reload-partition", 11}} {
		sc, err := Lookup(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(sc, tc.seed, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sc, tc.seed, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("%s seed %d diverged: %016x vs %016x\n%s", tc.scenario, tc.seed,
				a.TraceHash, b.TraceHash, firstDivergence(a.TraceLines, b.TraceLines))
		}
	}
}

// TestRunInvariantsHold runs a slice of the builtin catalog on a few
// seeds each; any violation is a real bug (or a broken invariant).
func TestRunInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep in -short mode")
	}
	for _, name := range []string{"loss", "duplicate", "partition", "garbage", "flood", "drain-loss", "reload-partition", "requester-reuse"} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			res, err := Run(sc, seed, testConfig())
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("%s seed %d: %s", name, seed, v)
			}
		}
	}
}

// TestRequesterReuseIsDeterministic holds the scenario whose sockets
// outlive their sessions to the DST contract — one (scenario, seed), one
// trace — and checks that the run did what it is for: sockets were lent
// again and the epoch guard fired.
func TestRequesterReuseIsDeterministic(t *testing.T) {
	sc, err := Lookup("requester-reuse")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, 11, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 11, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed diverged: %016x vs %016x\n%s", a.TraceHash, b.TraceHash, firstDivergence(a.TraceLines, b.TraceLines))
	}
	for _, v := range a.Violations {
		t.Errorf("seed 11: %s", v)
	}
	c := a.Cases["slp-to-bonjour"]
	if c.RequesterLends <= c.RequesterOpens || a.Counter("stale") == 0 {
		t.Errorf("slp-to-bonjour lent %d times from %d sockets, %d stale: want sockets reused and the guard exercised",
			c.RequesterLends, c.RequesterOpens, a.Counter("stale"))
	}
	if text := FormatArtifact(a); !strings.Contains(text, "\ndistinct\n") || !strings.Contains(text, " stale=") {
		t.Errorf("artifact lacks the distinct flag or the stale counter:\n%s", text[:600])
	}
}

// TestSSDPReuseLendsByST checks that ssdp-reuse does what it is for:
// slp-to-upnp bridged every lookup (and the duplicated ones again), its
// SSDP sockets were lent again, and the stale guard fired.
func TestSSDPReuseLendsByST(t *testing.T) {
	sc, err := Lookup("ssdp-reuse")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 11, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("seed 11: %s", v)
	}
	c := res.Cases["slp-to-upnp"]
	if c.Completed < sc.Clients || c.RequesterOpens >= c.RequesterLends || c.Stale == 0 {
		t.Errorf("slp-to-upnp completed %d, lent %d times from %d sockets, %d stale: want every lookup bridged, sockets reused and the ST guard exercised",
			c.Completed, c.RequesterLends, c.RequesterOpens, c.Stale)
	}
}

// TestReloadScenarioDeploysAlt checks the hot-reload path actually
// reaches the alt case: after the reload, raw unicast requests must
// open sessions in slp-to-upnp-alt.
func TestReloadScenarioDeploysAlt(t *testing.T) {
	sc, err := Lookup("reload-partition")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Started["slp-to-upnp-alt"] == 0 {
		t.Fatalf("no sessions in slp-to-upnp-alt after reload; started=%v", res.Started)
	}
}

// TestSelftestFailAndReplay drives the full failure pipeline: the
// intentionally unsatisfiable scenario must violate its expectation,
// the artifact must round-trip, and replaying it must reproduce the
// identical trace and violations.
func TestSelftestFailAndReplay(t *testing.T) {
	sc, err := Lookup("selftest-fail")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 99, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("selftest-fail passed; it must violate its expectation")
	}

	text := FormatArtifact(res)
	art, err := ParseArtifact(text)
	if err != nil {
		t.Fatalf("parse artifact: %v\n%s", err, text)
	}
	if art.Seed != 99 || art.TraceHash != res.TraceHash {
		t.Fatalf("artifact identity mangled: seed=%d hash=%016x", art.Seed, art.TraceHash)
	}
	if len(art.Violations) != len(res.Violations) {
		t.Fatalf("artifact carries %d violations, run had %d", len(art.Violations), len(res.Violations))
	}
	if FormatScenario(art.Scenario) != FormatScenario(sc) {
		t.Fatal("artifact scenario does not round-trip")
	}

	rep, err := Replay(art, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced() {
		t.Fatalf("replay did not reproduce: trace=%v violations=%v divergence=%s",
			rep.TraceMatch, rep.ViolationsMatch, rep.Divergence)
	}
}

// TestArtifactEmbedsFlightRecorder checks that failed sessions carry
// their engine flight-recorder dumps into the artifact: the partition
// scenario fails every session (the legacy side is unreachable for
// longer than the bridge's discovery windows), and each failure must
// appear with a parseable flight trace.
func TestArtifactEmbedsFlightRecorder(t *testing.T) {
	sc, err := Lookup("partition")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedSessions) == 0 {
		t.Fatal("partition run failed no sessions; the scenario no longer exercises failure traces")
	}
	for _, f := range res.FailedSessions {
		if len(f.Trace) == 0 {
			t.Fatalf("failed session %s/%s has no flight-recorder trace", f.Case, f.Origin)
		}
	}
	text := FormatArtifact(res)
	if !strings.Contains(text, "[failed-sessions]") || !strings.Contains(text, "  flight ") {
		t.Fatalf("artifact missing flight-recorder section:\n%.800s", text)
	}
}

// TestArtifactRejectsGarbage pins the parser's failure modes.
func TestArtifactRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not an artifact\n",
		artifactHeader + "\nseed nope\n",
		artifactHeader + "\nwat 1\n",
		artifactHeader + "\n[scenario]\nscenario x\ncase a\nclients 2000000000\n",
	} {
		if _, err := ParseArtifact(bad); err == nil {
			t.Errorf("ParseArtifact accepted %q", bad)
		}
	}
}

// TestCounterNamesCovered keeps Expectation counters and Result.Counter
// in sync.
func TestCounterNamesCovered(t *testing.T) {
	r := &Result{}
	for name := range expectCounters {
		_ = r.Counter(name) // must not panic; zero Result sums to zero
		if !strings.EqualFold(name, name) {
			t.Fatal("unreachable")
		}
	}
}
