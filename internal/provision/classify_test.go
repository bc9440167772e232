package provision

import (
	"os"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/registry"
	"starlink/internal/simnet"
)

// composeSample builds a wire sample of one abstract message under the
// registry's spec for its protocol.
func composeSample(t testing.TB, reg *registry.Registry, msg *message.Message) []byte {
	t.Helper()
	c, err := reg.Compiled(firstCaseFor(t, reg, msg.Protocol))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.Codecs[msg.Protocol].Composer.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// firstCaseFor returns a loaded case involving the protocol.
func firstCaseFor(t testing.TB, reg *registry.Registry, proto string) string {
	t.Helper()
	for _, name := range reg.MergedNames() {
		c, err := reg.Compiled(name)
		if err != nil {
			continue
		}
		if _, ok := c.Codecs[proto]; ok {
			return name
		}
	}
	t.Fatalf("no loaded case uses protocol %s", proto)
	return ""
}

// scenarioResult captures everything classification-relevant from one
// full multi-case run.
type scenarioResult struct {
	urls     []string
	upnpOK   bool
	altURL   string
	altOK    bool
	perCase  map[string]engine.Snapshot
	counters DispatchCounters
}

// runClassificationScenario drives the full seven-case deployment
// (six builtins plus the hot-loaded slp-to-upnp-alt) through the
// ambiguity, reverse-case and egress-suppression flows and returns the
// observable outcome.
func runClassificationScenario(t *testing.T) scenarioResult {
	t.Helper()
	sim := simnet.New(simnet.WithSeed(7))
	reg := builtin(t)
	if _, err := registry.LoadFS(reg, os.DirFS(fixturesDir)); err != nil {
		t.Fatal(err)
	}
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(reg, node)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Cases(); len(got) != 7 {
		t.Fatalf("cases = %v", got)
	}

	// Legacy services: a Bonjour responder (for slp-to-bonjour and
	// upnp-to-bonjour) and a UPnP device (for slp-to-upnp-alt).
	svcNode, err := sim.NewNode("10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	devNode, err := sim.NewNode("10.0.0.8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.8:5431/print", 5431); err != nil {
		t.Fatal(err)
	}

	var res scenarioResult

	// 1. SLP multicast lookup: ambiguous between slp-to-bonjour and
	// slp-to-upnp; also triggers egress suppression when the bridge's
	// own mDNS question echoes back on the shared listener.
	cliNode, err := sim.NewNode("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	slpDone := false
	slp.NewUserAgent(cliNode, slp.WithConvergenceWait(time.Second)).
		Lookup("service:printer", func(r slp.LookupResult) {
			slpDone = true
			if r.Err != nil {
				t.Error(r.Err)
			}
			res.urls = r.URLs
		})
	if err := sim.RunUntil(func() bool { return slpDone }, time.Minute); err != nil {
		t.Fatal(err)
	}

	// 2. UPnP control point: reverse case with the mid-session
	// description GET classifying via the awaiting-session probe.
	cpNode, err := sim.NewNode("10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	upnpDone := false
	upnp.NewControlPoint(cpNode).Discover("urn:printer", func(r upnp.DiscoverResult) {
		upnpDone = true
		res.upnpOK = r.Err == nil
	})
	if err := sim.RunUntil(func() bool { return upnpDone }, time.Minute); err != nil {
		t.Fatal(err)
	}

	// 3. Unicast SLP request to the hot-loaded seventh case.
	altNode, err := sim.NewNode("10.0.0.3")
	if err != nil {
		t.Fatal(err)
	}
	res.altURL, res.altOK = slpUnicastLookup(t, sim, reg, altNode, netapi.Addr{IP: "10.0.0.5", Port: 1427})

	sim.RunToQuiescence()
	snap := d.Counts()
	res.perCase, res.counters = snap.Cases, snap.Dispatch
	return res
}

// TestDispatcherClassificationEquivalence runs all seven example cases
// through the flows classification decides: the ambiguous SLP multicast
// request, the reverse-case awaiting-session GET, the hot-loaded alt
// case and the deployment's own suppressed egress. Every payload is
// classified by its candidate parsers' Classify.
func TestDispatcherClassificationEquivalence(t *testing.T) {
	res := runClassificationScenario(t)
	if c := res.counters; c.Dispatched+c.Rejected+c.Unroutable+c.ParseErrors == 0 {
		t.Error("no payload was classified")
	}
	if len(res.urls) != 1 || res.urls[0] != "service:printer://10.0.0.9:515" {
		t.Errorf("SLP lookup urls = %v, want the Bonjour responder's", res.urls)
	}
	if !res.upnpOK {
		t.Error("UPnP discover failed")
	}
	if !res.altOK || res.altURL == "" {
		t.Errorf("alt case lookup = %q/%v, want a URL", res.altURL, res.altOK)
	}
	if res.counters.Ambiguous == 0 {
		t.Error("scenario never exercised an ambiguous classification")
	}
	if res.counters.Suppressed == 0 {
		t.Error("scenario never exercised egress suppression")
	}
}

// sharedListener deploys all seven example cases on a dispatcher and
// returns the shared listener whose first candidate speaks proto. The
// dispatcher is closed with tb.
func sharedListener(tb testing.TB, proto string) (*listener, *registry.Registry) {
	tb.Helper()
	sim := simnet.New()
	reg, err := registry.Builtin()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := registry.LoadFS(reg, os.DirFS(fixturesDir)); err != nil {
		tb.Fatal(err)
	}
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		tb.Fatal(err)
	}
	d := NewDispatcher(reg, node)
	tb.Cleanup(func() { _ = d.Close() })
	if err := d.Sync(); err != nil {
		tb.Fatal(err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, l := range d.listeners {
		if len(l.points) == 2 && l.points[0].proto == proto {
			return l, reg
		}
	}
	tb.Fatalf("no shared %s listener found", proto)
	return nil, nil
}

// slpRequest is an SLP service request composed by the shipped model:
// on the shared SLP multicast listener it classifies as the ambiguous
// pair (slp-to-bonjour and slp-to-upnp).
func slpRequest(tb testing.TB, reg *registry.Registry) []byte {
	tb.Helper()
	req := message.New("SLP", "SLPSrvRequest")
	req.AddPrimitive("Version", message.Int(2))
	req.AddPrimitive("XID", message.Int(42))
	req.AddPrimitive("LangTag", message.Str("en"))
	req.AddPrimitive("SRVType", message.Str("service:printer"))
	return composeSample(tb, reg, req)
}

// TestClassifyAllocs pins classification at zero allocations per
// payload, matched or not: the matches fit the buffer dispatch keeps on
// its stack, the per-protocol memo is a value, and Classify neither
// copies the payload nor builds an error.
func TestClassifyAllocs(t *testing.T) {
	slpL, reg := sharedListener(t, "SLP")
	ssdpL, _ := sharedListener(t, "SSDP")
	garbage := []byte("\xde\xad \xbe\xef\r\n")
	for _, tc := range []struct {
		name string
		l    *listener
		wire []byte
		want int
	}{
		{"SLP request, ambiguous pair", slpL, slpRequest(t, reg), 2},
		{"SSDP M-SEARCH", ssdpL, ssdp.NewMSearch("urn:printer", 1).Marshal(), 2},
		{"garbage on SLP", slpL, garbage, 0},
		{"garbage on SSDP", ssdpL, garbage, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n int
			allocs := testing.AllocsPerRun(100, func() {
				var buf [4]match
				matches, _ := classify(buf[:0], tc.l.points, tc.wire, "10.0.0.1")
				n = len(matches)
			})
			if n != tc.want {
				t.Fatalf("matches = %d, want %d", n, tc.want)
			}
			if allocs != 0 {
				t.Errorf("classify allocates %.1f times per payload, want 0", allocs)
			}
		})
	}
}

// BenchmarkDispatcherClassify classifies an SLP service request on a
// live dispatcher hosting all seven example cases, on the shared SLP
// multicast listener (two candidate cases).
func BenchmarkDispatcherClassify(b *testing.B) {
	l, reg := sharedListener(b, "SLP")
	wire := slpRequest(b, reg)
	b.Run("classify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf [4]match
			matches, _ := classify(buf[:0], l.points, wire, "10.0.0.1")
			if len(matches) != 2 {
				b.Fatalf("matches = %d, want 2 (ambiguous pair)", len(matches))
			}
		}
	})
}
