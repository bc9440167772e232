package provision

import (
	"os"
	"reflect"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
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

// sampleProto names the protocol of each sampleMessages entry.
var sampleProto = map[string]string{
	"SLPSrvRequest": "SLP", "SLPSrvReply": "SLP",
	"SSDPMSearch": "SSDP", "SSDPResponse": "SSDP",
	"HTTPGet":     "HTTP",
	"DNSQuestion": "mDNS",
}

// sampleMessages builds one wire sample per message type of the four
// builtin protocols.
func sampleMessages(t testing.TB, reg *registry.Registry) map[string][]byte {
	t.Helper()
	samples := map[string]*message.Message{}

	req := message.New("SLP", "SLPSrvRequest")
	req.AddPrimitive("Version", "Integer", message.Int(2))
	req.AddPrimitive("XID", "Integer", message.Int(42))
	req.AddPrimitive("LangTag", "String", message.Str("en"))
	req.AddPrimitive("SRVType", "String", message.Str("service:printer"))
	samples["SLPSrvRequest"] = req

	rep := message.New("SLP", "SLPSrvReply")
	rep.AddPrimitive("Version", "Integer", message.Int(2))
	rep.AddPrimitive("XID", "Integer", message.Int(42))
	rep.AddPrimitive("LangTag", "String", message.Str("en"))
	rep.AddPrimitive("URLCount", "Integer", message.Int(1))
	rep.AddPrimitive("URLEntry", "String", message.Str("service:printer://10.0.0.9:515"))
	samples["SLPSrvReply"] = rep

	msearch := message.New("SSDP", "SSDPMSearch")
	msearch.AddPrimitive("URI", "String", message.Str("*"))
	msearch.AddPrimitive("Version", "String", message.Str("HTTP/1.1"))
	msearch.AddPrimitive("ST", "String", message.Str("urn:printer"))
	samples["SSDPMSearch"] = msearch

	resp := message.New("SSDP", "SSDPResponse")
	resp.AddPrimitive("URI", "String", message.Str("200"))
	resp.AddPrimitive("Version", "String", message.Str("OK"))
	resp.AddPrimitive("ST", "String", message.Str("urn:printer"))
	resp.AddPrimitive("LOCATION", "URL", message.Str("http://10.0.0.7:5431/desc.xml"))
	samples["SSDPResponse"] = resp

	get := message.New("HTTP", "HTTPGet")
	get.AddPrimitive("URI", "String", message.Str("/desc.xml"))
	get.AddPrimitive("Version", "String", message.Str("HTTP/1.1"))
	samples["HTTPGet"] = get

	q := message.New("mDNS", "DNSQuestion")
	q.AddPrimitive("ID", "Integer", message.Int(1))
	q.AddPrimitive("QDCount", "Integer", message.Int(1))
	q.AddPrimitive("DomainName", "FQDN", message.Str("printer.local"))
	q.AddPrimitive("QType", "Integer", message.Int(12))
	q.AddPrimitive("QClass", "Integer", message.Int(1))
	samples["DNSQuestion"] = q

	out := map[string][]byte{}
	for name, m := range samples {
		out[name] = composeSample(t, reg, m)
	}
	return out
}

// TestSignatureClassifiesLikeParse checks the core equivalence on the
// message level: for every sample wire of every builtin protocol, the
// derived signature resolves exactly the message name the full parser
// resolves, with zero allocations.
func TestSignatureClassifiesLikeParse(t *testing.T) {
	reg := builtin(t)
	for name, wire := range sampleMessages(t, reg) {
		proto := sampleProto[name]
		spec, err := reg.Spec(proto)
		if err != nil {
			t.Fatal(err)
		}
		sig := deriveSignature(spec)
		if sig == nil {
			t.Fatalf("%s: no signature derivable", proto)
		}
		got, ok := sig.Classify(wire)
		if !ok || got != name {
			t.Errorf("%s: Classify = %q, %v; want %q", proto, got, ok, name)
		}
		// Cross-check against the authoritative parser.
		c, err := reg.Compiled(firstCaseFor(t, reg, proto))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := c.Codecs[proto].Parser.Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.Name != got {
			t.Errorf("%s: signature says %q, parser says %q", proto, got, parsed.Name)
		}
		parsed.Release()
	}
}

// TestSignatureRejectsUnclassifiable checks that malformed
// discriminators classify as not-ok, matching a failed trial parse.
func TestSignatureRejectsUnclassifiable(t *testing.T) {
	reg := builtin(t)
	slpSpec, _ := reg.Spec("SLP")
	ssdpSpec, _ := reg.Spec("SSDP")
	slpSig, ssdpSig := deriveSignature(slpSpec), deriveSignature(ssdpSpec)
	if slpSig == nil || ssdpSig == nil {
		t.Fatal("signatures must derive for SLP and SSDP")
	}
	for _, data := range [][]byte{nil, {2}, {2, 99, 0, 0}} {
		if name, ok := slpSig.Classify(data); ok {
			t.Errorf("SLP Classify(%v) = %q, want not-ok", data, name)
		}
	}
	for _, data := range [][]byte{nil, []byte("NOTIFY * HTTP/1.1\r\n\r\n"), []byte("no delimiters here")} {
		if name, ok := ssdpSig.Classify(data); ok {
			t.Errorf("SSDP Classify(%q) = %q, want not-ok", data, name)
		}
	}
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
// observable outcome. Identical inputs, deterministic simulator: two
// runs differing only in classification path must produce identical
// results. trialParse makes every listener take the fallback path, the
// way it does when a candidate MDL has no derivable signature.
func runClassificationScenario(t *testing.T, trialParse bool) scenarioResult {
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
	if trialParse {
		d.mu.Lock()
		for _, l := range d.listeners {
			l.sigOK = false
		}
		d.mu.Unlock()
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

// TestClassificationPathsAgree holds classifySlow up as the oracle of
// classifyFast: on every shared listener of the seven-case deployment,
// for every sample message of the listener's candidate protocols and for
// garbage, the two return the same matches in the same order and the
// same anything-classified verdict. (Another protocol's bytes are outside
// the agreement: the fast path defers body validation to the chosen
// engine's parser.)
func TestClassificationPathsAgree(t *testing.T) {
	sim := simnet.New()
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

	samples := sampleMessages(t, reg)
	names := func(ms []match) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.pt.dep.name + "/" + m.pt.proto + "/" + m.msg
		}
		return out
	}
	matched := 0
	for key, l := range d.listeners {
		if !l.sigOK {
			t.Errorf("listener %s: no signature index, nothing to compare", key)
			continue
		}
		payloads := map[string][]byte{"garbage": {0xde, 0xad, 0xbe, 0xef}, "empty": nil}
		for name, wire := range samples {
			if _, candidate := l.sigs[sampleProto[name]]; candidate {
				payloads[name] = wire
			}
		}
		for name, wire := range payloads {
			fast, fastAny := classifyFast(nil, l.points, l.sigs, wire, "10.0.0.1")
			slow, slowAny := classifySlow(nil, l.points, wire, "10.0.0.1")
			if fastAny != slowAny || !reflect.DeepEqual(names(fast), names(slow)) {
				t.Errorf("listener %s, %s: fast = %v (%v), slow = %v (%v)",
					key, name, names(fast), fastAny, names(slow), slowAny)
			}
			matched += len(fast)
		}
	}
	if matched == 0 {
		t.Error("no sample matched any entry point: the comparison is vacuous")
	}
}

// TestDispatcherClassificationEquivalence is the dispatcher-level
// equivalence claim: with all seven example cases loaded, the
// signature-index fast path and the trial-parse fallback classify the
// same traffic — including the ambiguous SLP multicast request, the
// reverse-case awaiting-session GET and the deployment's own
// suppressed egress — identically. Only the FastPath/SlowPath hit
// counters may differ.
func TestDispatcherClassificationEquivalence(t *testing.T) {
	fast := runClassificationScenario(t, false)
	slow := runClassificationScenario(t, true)

	if fast.counters.FastPath == 0 || fast.counters.SlowPath != 0 {
		t.Errorf("fast run: FastPath=%d SlowPath=%d, want all fast-path",
			fast.counters.FastPath, fast.counters.SlowPath)
	}
	if slow.counters.SlowPath == 0 || slow.counters.FastPath != 0 {
		t.Errorf("slow run: FastPath=%d SlowPath=%d, want all slow-path",
			slow.counters.FastPath, slow.counters.SlowPath)
	}
	if fast.counters.FastPath != slow.counters.SlowPath {
		t.Errorf("paths saw different payload counts: fast=%d slow=%d",
			fast.counters.FastPath, slow.counters.SlowPath)
	}

	// Identical classification outcomes.
	fc, sc := fast.counters, slow.counters
	fc.FastPath, fc.SlowPath, sc.FastPath, sc.SlowPath = 0, 0, 0, 0
	if fc != sc {
		t.Errorf("dispatch counters diverge:\n fast: %+v\n slow: %+v", fc, sc)
	}
	if len(fast.perCase) != len(slow.perCase) {
		t.Fatalf("per-case stats diverge: %v vs %v", fast.perCase, slow.perCase)
	}
	for name, f := range fast.perCase {
		s := slow.perCase[name]
		if f.Completed != s.Completed || f.Failed != s.Failed || f.ParseErrors != s.ParseErrors {
			t.Errorf("case %s diverges: fast %+v, slow %+v", name, f.Counters, s.Counters)
		}
	}
	if len(fast.urls) != 1 || len(slow.urls) != 1 || fast.urls[0] != slow.urls[0] {
		t.Errorf("SLP lookup urls diverge: %v vs %v", fast.urls, slow.urls)
	}
	if !fast.upnpOK || !slow.upnpOK {
		t.Errorf("UPnP discover: fast=%v slow=%v, want both ok", fast.upnpOK, slow.upnpOK)
	}
	if !fast.altOK || !slow.altOK || fast.altURL != slow.altURL {
		t.Errorf("alt case lookup diverges: %q/%v vs %q/%v",
			fast.altURL, fast.altOK, slow.altURL, slow.altOK)
	}
	if fast.counters.Ambiguous == 0 {
		t.Error("scenario never exercised an ambiguous classification")
	}
	if fast.counters.Suppressed == 0 {
		t.Error("scenario never exercised egress suppression")
	}
}

// sharedSLPListener deploys all seven example cases on a dispatcher and
// returns its shared SLP multicast listener (slp-to-bonjour +
// slp-to-upnp) and an SLP service request, which classifies there as
// the ambiguous pair. The dispatcher is closed with tb.
func sharedSLPListener(tb testing.TB) (*listener, []byte) {
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
	if n := len(d.Cases()); n < 4 {
		tb.Fatalf("want >= 4 cases loaded, have %d", n)
	}

	req := message.New("SLP", "SLPSrvRequest")
	req.AddPrimitive("Version", "Integer", message.Int(2))
	req.AddPrimitive("XID", "Integer", message.Int(42))
	req.AddPrimitive("LangTag", "String", message.Str("en"))
	req.AddPrimitive("SRVType", "String", message.Str("service:printer"))
	wire := composeSample(tb, reg, req)

	d.mu.RLock()
	var l *listener
	for _, cand := range d.listeners {
		if len(cand.points) == 2 && cand.points[0].proto == "SLP" {
			l = cand
		}
	}
	d.mu.RUnlock()
	if l == nil {
		tb.Fatal("no shared SLP listener found")
	}
	if !l.sigOK {
		tb.Fatal("SLP listener has no derivable signature index")
	}
	return l, wire
}

// TestClassifyFastAllocs pins the signature path at zero allocations per
// payload: its matches fit the buffer dispatch keeps on its stack, and
// its per-protocol memo is a value, not a closure.
func TestClassifyFastAllocs(t *testing.T) {
	l, wire := sharedSLPListener(t)
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		var buf [4]match
		matches, _ := classifyFast(buf[:0], l.points, l.sigs, wire, "10.0.0.1")
		n = len(matches)
	})
	if n != 2 {
		t.Fatalf("matches = %d, want 2 (ambiguous pair)", n)
	}
	if allocs != 0 {
		t.Errorf("classifyFast allocates %.1f times per payload, want 0", allocs)
	}
}

// BenchmarkDispatcherClassify compares the two classification paths on
// a live dispatcher hosting all seven example cases, classifying an
// SLP service request arriving on the shared SLP multicast listener
// (two candidate cases) — the acceptance gate is signature ≥ 2× faster
// than trial-parse.
func BenchmarkDispatcherClassify(b *testing.B) {
	l, wire := sharedSLPListener(b)
	b.Run("signature", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf [4]match
			matches, _ := classifyFast(buf[:0], l.points, l.sigs, wire, "10.0.0.1")
			if len(matches) != 2 {
				b.Fatalf("matches = %d, want 2 (ambiguous pair)", len(matches))
			}
		}
	})
	b.Run("trialparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf [4]match
			matches, _ := classifySlow(buf[:0], l.points, wire, "10.0.0.1")
			if len(matches) != 2 {
				b.Fatalf("matches = %d, want 2 (ambiguous pair)", len(matches))
			}
		}
	})
}
