package engine_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/provision"
	"starlink/internal/registry"
	"starlink/internal/simnet"
)

// testSink adapts optional callbacks to engine.Sink. It serialises them,
// as a deployment's observer chain does, so the callbacks need no locking
// of their own.
type testSink struct {
	mu   sync.Mutex
	end  func(engine.SessionStats)
	drop func(origin netapi.Addr, reason error)
}

func (*testSink) SessionStart(string, netapi.Addr, time.Time) {}

func (k *testSink) SessionEnd(_ string, s engine.SessionStats) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.end != nil {
		k.end(s)
	}
}

func (k *testSink) Dropped(_ string, origin netapi.Addr, reason error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.drop != nil {
		k.drop(origin, reason)
	}
}

// onSessionEnd registers fn to run as each session ends.
func onSessionEnd(fn func(engine.SessionStats)) engine.Option {
	return engine.WithSink(&testSink{end: fn})
}

func builtin(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// newEngine constructs (without starting) a bridge engine for a case on
// the given node; the engine is closed with the test.
func newEngine(t *testing.T, node netapi.Node, caseName string, opts ...engine.Option) *engine.Engine {
	t.Helper()
	c, err := builtin(t).Compiled(caseName)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(node, c.Merged, c.Codecs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// build constructs (without starting) a bridge engine for a case on the
// sim, so a test can fill the ingest lanes deterministically: no workers
// drain them until Start or Close.
func build(t *testing.T, sim *simnet.Net, caseName string, opts ...engine.Option) *engine.Engine {
	t.Helper()
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(t, node, caseName, opts...)
}

// hosted deploys a case on a node the test made (a wrapper, a realnet
// host) the way every bridge is deployed — a dispatcher hosting the one
// case — and returns the case's engine. The dispatcher is closed with
// the test.
func hosted(t *testing.T, node netapi.Node, caseName string, opts ...engine.Option) *engine.Engine {
	t.Helper()
	return hostedFrom(t, builtin(t), node, caseName, opts...)
}

// hostedFrom is hosted with the models of reg.
func hostedFrom(t *testing.T, reg *registry.Registry, node netapi.Node, caseName string, opts ...engine.Option) *engine.Engine {
	t.Helper()
	d := provision.NewDispatcher(reg, node, provision.WithCases(caseName), provision.WithEngineOptions(opts...))
	t.Cleanup(func() { _ = d.Close() })
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	e, _ := d.Engine(caseName)
	return e
}

// deploy runs a case on the sim's bridge host 10.0.0.5 through
// provision.Deploy and returns the case's engine; the deployment is
// closed with the test.
func deploy(t *testing.T, sim *simnet.Net, caseName string, opts ...engine.Option) *engine.Engine {
	t.Helper()
	d, err := deployCase(context.Background(), t, sim, "10.0.0.5", caseName, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	e, _ := d.Engine(caseName)
	return e
}

// Case 1 (paper Fig. 4/5): an SLP user agent discovers a UPnP device.
func TestBridgeSLPToUPnP(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-upnp")

	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.7:5431/svc", 5431); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond))
	var res slp.LookupResult
	done := false
	ua.Lookup("service:printer", func(r slp.LookupResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.URLs) != 1 || res.URLs[0] != "http://10.0.0.7:5431/svc" {
		t.Fatalf("urls = %v", res.URLs)
	}
	if e.Counts().Completed != 1 || e.Counts().Failed != 0 {
		t.Fatalf("completed=%d failed=%d parseErrs=%d", e.Counts().Completed, e.Counts().Failed, e.Counts().ParseErrors)
	}
}

// Case 2 (paper Fig. 10): an SLP user agent discovers a Bonjour service.
func TestBridgeSLPToBonjour(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour")

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond))
	var res slp.LookupResult
	done := false
	ua.Lookup("service:printer", func(r slp.LookupResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 1 || res.URLs[0] != "service:printer://10.0.0.9:515" {
		t.Fatalf("urls = %v", res.URLs)
	}
	if e.Counts().Completed != 1 {
		t.Fatalf("completed=%d failed=%d", e.Counts().Completed, e.Counts().Failed)
	}
}

// Case 3: a UPnP control point discovers an SLP service. The bridge
// waits the SLP convergence window (~6.25 s virtual), so the control
// point needs Cyberlink's unbounded-wait behaviour (a wide MX).
func TestBridgeUPnPToSLP(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "upnp-to-slp")

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	cp := upnp.NewControlPoint(cliNode, upnp.WithMX(8*time.Second))
	var res upnp.DiscoverResult
	done := false
	cp.Discover("urn:printer", func(r upnp.DiscoverResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.ServiceURLs) != 1 || res.ServiceURLs[0] != "service:printer://10.0.0.9:515" {
		t.Fatalf("urls = %v (completed=%d failed=%d parse=%d ignored=%d)",
			res.ServiceURLs, e.Counts().Completed, e.Counts().Failed, e.Counts().ParseErrors, e.Counts().Ignored)
	}
	if e.Counts().Completed != 1 {
		t.Fatalf("completed=%d failed=%d", e.Counts().Completed, e.Counts().Failed)
	}
}

// Case 4: a UPnP control point discovers a Bonjour service.
func TestBridgeUPnPToBonjour(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "upnp-to-bonjour")

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "http://10.0.0.9:8000/svc"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	cp := upnp.NewControlPoint(cliNode)
	var res upnp.DiscoverResult
	done := false
	cp.Discover("urn:printer", func(r upnp.DiscoverResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(res.ServiceURLs) != 1 || res.ServiceURLs[0] != "http://10.0.0.9:8000/svc" {
		t.Fatalf("urls = %v", res.ServiceURLs)
	}
	if e.Counts().Completed != 1 {
		t.Fatalf("completed=%d failed=%d", e.Counts().Completed, e.Counts().Failed)
	}
}

// Case 5: a Bonjour browser discovers a UPnP device.
func TestBridgeBonjourToUPnP(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "bonjour-to-upnp")

	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.7:5431/svc", 5431); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	b := dnssd.NewBrowser(cliNode, dnssd.WithBrowseWindow(500*time.Millisecond))
	var res dnssd.BrowseResult
	done := false
	b.Browse("printer.local", func(r dnssd.BrowseResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 1 || res.URLs[0] != "http://10.0.0.7:5431/svc" {
		t.Fatalf("urls = %v (failed=%d)", res.URLs, e.Counts().Failed)
	}
	if e.Counts().Completed != 1 {
		t.Fatalf("completed=%d failed=%d", e.Counts().Completed, e.Counts().Failed)
	}
}

// Case 6: a Bonjour browser discovers an SLP service (the browser must
// outlast the bridge's 6.25 s SLP convergence window).
func TestBridgeBonjourToSLP(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "bonjour-to-slp")

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	b := dnssd.NewBrowser(cliNode, dnssd.WithBrowseWindow(8*time.Second))
	var res dnssd.BrowseResult
	done := false
	b.Browse("printer.local", func(r dnssd.BrowseResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 1 || res.URLs[0] != "service:printer://10.0.0.9:515" {
		t.Fatalf("urls = %v (failed=%d parse=%d)", res.URLs, e.Counts().Failed, e.Counts().ParseErrors)
	}
	if e.Counts().Completed != 1 {
		t.Fatalf("completed=%d failed=%d", e.Counts().Completed, e.Counts().Failed)
	}
}

// Transparency (§V-C): the legacy peers never address the bridge — the
// client still talks to its own protocol's multicast group, and the
// session observer confirms the bridged exchange serves the client's
// request unchanged.
func TestBridgeTransparencyObserver(t *testing.T) {
	sim := simnet.New()
	var stats []engine.SessionStats
	e := deploy(t, sim, "slp-to-bonjour", onSessionEnd(func(s engine.SessionStats) {
		stats = append(stats, s)
	}))
	_ = e
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:x"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
	done := false
	ua.Lookup("service:printer", func(slp.LookupResult) { done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("stats = %d", len(stats))
	}
	if stats[0].Err != nil {
		t.Fatal(stats[0].Err)
	}
	if stats[0].Origin.IP != "10.0.0.1" {
		t.Fatalf("origin = %v", stats[0].Origin)
	}
	if stats[0].Duration <= 0 {
		t.Fatalf("duration = %v", stats[0].Duration)
	}
}

// Two concurrent SLP clients must be bridged in independent sessions.
func TestBridgeConcurrentSessions(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour")
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:x"); err != nil {
		t.Fatal(err)
	}
	doneCount := 0
	okCount := 0
	for i := 0; i < 3; i++ {
		cliNode, _ := sim.NewNode("10.0.1." + string(rune('1'+i)))
		ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
		ua.Lookup("service:printer", func(r slp.LookupResult) {
			doneCount++
			if len(r.URLs) == 1 {
				okCount++
			}
		})
	}
	if err := sim.RunUntil(func() bool { return doneCount == 3 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if okCount != 3 {
		t.Fatalf("ok = %d of 3 (completed=%d failed=%d)", okCount, e.Counts().Completed, e.Counts().Failed)
	}
	if e.Counts().Completed != 3 {
		t.Fatalf("completed = %d", e.Counts().Completed)
	}
}

// A lookup for a service type nobody provides must fail the session
// with a convergence timeout, not hang or crash.
func TestBridgeNoServiceTimesOut(t *testing.T) {
	sim := simnet.New()
	var stats []engine.SessionStats
	e := deploy(t, sim, "slp-to-bonjour", onSessionEnd(func(s engine.SessionStats) {
		stats = append(stats, s)
	}))
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
	done := false
	var res slp.LookupResult
	ua.Lookup("service:printer", func(r slp.LookupResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 0 {
		t.Fatalf("urls = %v", res.URLs)
	}
	sim.RunToQuiescence()
	if e.Counts().Failed != 1 || len(stats) != 1 || stats[0].Err == nil {
		t.Fatalf("failed=%d stats=%+v", e.Counts().Failed, stats)
	}
	if !strings.Contains(stats[0].Err.Error(), "timeout waiting for mDNS/DNSResponse") {
		t.Fatalf("err = %v", stats[0].Err)
	}
}

// Garbage datagrams on the entry listener must be counted and ignored:
// no candidate protocol classifies them, so no engine sees them.
func TestBridgeIgnoresGarbage(t *testing.T) {
	sim := simnet.New()
	d, err := deployCase(context.Background(), t, sim, "10.0.0.5", "slp-to-bonjour")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cliNode, _ := sim.NewNode("10.0.0.1")
	sock, _ := cliNode.OpenUDP(0, func(netapi.Packet) {})
	if err := sock.Send(netapi.Addr{IP: slp.Group, Port: slp.Port}, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	s := d.Counts()
	if s.Dispatch.ParseErrors != 1 || s.Dispatch.Dispatched != 0 {
		t.Fatalf("dispatch counters = %+v, want one parse error and nothing dispatched", s.Dispatch)
	}
	if c := s.Cases["slp-to-bonjour"]; c.Ingested != 0 || c.Live+c.Completed+c.Failed != 0 {
		t.Fatalf("case counters = %+v: garbage must not reach the engine", c.Counters)
	}
}

// The compiled program for the paper's Fig. 4 case is exposed for
// inspection; verify its protocol chain is SLP → SSDP → HTTP → SLP.
func TestBridgeProgramChain(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-upnp")
	var chain []string
	for _, s := range e.Program() {
		if len(chain) == 0 || chain[len(chain)-1] != s.Protocol {
			chain = append(chain, s.Protocol)
		}
	}
	want := []string{"SLP", "SSDP", "HTTP", "SLP"}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
	// The plan's requester color table: SSDP, lent on the ST its replies
	// echo, and HTTP, one connection per session.
	if lent := e.LentColors(); len(lent) != 2 || !lent[0] || lent[1] {
		t.Fatalf("requester color table lent = %v, want SSDP lent and HTTP one socket per session", lent)
	}
}
