package engine_test

import (
	"strings"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/simnet"
)

// A reverse bridge with no SLP service behind it must fail the session
// with a convergence-window error after ~6.25 s — and the control
// point simply times out, as with a genuinely absent device.
func TestBridgeReverseNoServiceFailsSession(t *testing.T) {
	sim := simnet.New()
	var stats []engine.SessionStats
	e := deploy(t, sim, "upnp-to-slp", onSessionEnd(func(s engine.SessionStats) {
		stats = append(stats, s)
	}))
	_ = e
	cliNode, _ := sim.NewNode("10.0.0.1")
	cp := upnp.NewControlPoint(cliNode, upnp.WithMX(8*time.Second))
	var res upnp.DiscoverResult
	done := false
	cp.Discover("urn:printer", func(r upnp.DiscoverResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if len(res.ServiceURLs) != 0 {
		t.Fatalf("urls = %v", res.ServiceURLs)
	}
	if len(stats) != 1 || stats[0].Err == nil {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(stats[0].Err.Error(), "convergence window") {
		t.Fatalf("err = %v", stats[0].Err)
	}
}

// With multiple services answering, the SLP convergence window must
// collect all replies into the session history (the ⇒ history
// operator) and still produce exactly one translated reply.
func TestBridgeConvergenceCollectsMultipleReplies(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "upnp-to-slp")
	for i, ip := range []string{"10.0.0.8", "10.0.0.9"} {
		n, _ := sim.NewNode(ip)
		url := "service:printer://" + ip + ":515"
		if _, err := slp.NewServiceAgent(n, "service:printer", url); err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	cp := upnp.NewControlPoint(cliNode, upnp.WithMX(8*time.Second))
	var res upnp.DiscoverResult
	done := false
	cp.Discover("urn:printer", func(r upnp.DiscoverResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if e.Counts().Completed != 1 {
		t.Fatalf("completed = %d failed = %d", e.Counts().Completed, e.Counts().Failed)
	}
	// The control point received one LOCATION (the bridge's) and one
	// description; the URL is one of the two services.
	if len(res.ServiceURLs) != 1 {
		t.Fatalf("urls = %v", res.ServiceURLs)
	}
	if !strings.HasPrefix(res.ServiceURLs[0], "service:printer://10.0.0.") {
		t.Fatalf("url = %q", res.ServiceURLs[0])
	}
}

// Closing the engine mid-session must release resources without
// crashing; the client's lookup simply returns nothing, and what still
// reaches the dispatcher's listener is refused by the closed engine.
func TestBridgeCloseMidSession(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "bonjour-to-slp") // 6.25 s window: plenty of time
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:x"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	b := dnssd.NewBrowser(cliNode, dnssd.WithBrowseWindow(8*time.Second))
	var res dnssd.BrowseResult
	done := false
	b.Browse("printer.local", func(r dnssd.BrowseResult) { res = r; done = true })
	// Let the session start, then kill the bridge one second in.
	sim.Run(time.Second)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(res.URLs) != 0 {
		t.Fatalf("urls = %v after bridge close", res.URLs)
	}
}

// Datagram loss between bridge and target service: the bridge's
// request is dropped, the session times out cleanly, and a later
// retry (fresh request) succeeds once loss stops.
func TestBridgeSurvivesPacketLoss(t *testing.T) {
	sim := simnet.New(simnet.WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Loss: 1}}}))
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
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(200*time.Millisecond))
	done := false
	ua.Lookup("service:printer", func(slp.LookupResult) { done = true })
	sim.RunToQuiescence()
	// Total loss: the request never even reached the bridge.
	if !done {
		t.Fatal("client window should have expired")
	}
	if len(stats) != 0 {
		t.Fatalf("no session should have started, got %+v", stats)
	}
}

// Two bridges for different cases can coexist on one network as long
// as their entry colors differ (here: SLP entry + mDNS entry).
func TestTwoBridgesCoexist(t *testing.T) {
	sim := simnet.New()
	deployOn := func(host, caseName string) *engine.Engine {
		node, err := sim.NewNode(host)
		if err != nil {
			t.Fatal(err)
		}
		return hosted(t, node, caseName)
	}
	e1 := deployOn("10.0.0.5", "slp-to-upnp")
	e2 := deployOn("10.0.0.6", "bonjour-to-upnp")

	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.7:5431/svc", 5431); err != nil {
		t.Fatal(err)
	}

	// SLP client goes through bridge 1.
	cli1, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cli1, slp.WithConvergenceWait(400*time.Millisecond))
	slpDone := false
	var slpURLs []string
	ua.Lookup("service:printer", func(r slp.LookupResult) { slpURLs = r.URLs; slpDone = true })

	// Bonjour client goes through bridge 2.
	cli2, _ := sim.NewNode("10.0.0.2")
	br := dnssd.NewBrowser(cli2, dnssd.WithBrowseWindow(400*time.Millisecond))
	bonjourDone := false
	var dnsURLs []string
	br.Browse("printer.local", func(r dnssd.BrowseResult) { dnsURLs = r.URLs; bonjourDone = true })

	if err := sim.RunUntil(func() bool { return slpDone && bonjourDone }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(slpURLs) != 1 || len(dnsURLs) != 1 {
		t.Fatalf("slp=%v dns=%v (e1: %d/%d, e2: %d/%d)",
			slpURLs, dnsURLs, e1.Counts().Completed, e1.Counts().Failed, e2.Counts().Completed, e2.Counts().Failed)
	}
}

// The SSDP entry of a UPnP-facing bridge must ignore searches for
// service types it cannot serve... in fact Starlink is type-agnostic:
// it forwards any ST. Verify an unmatched type flows through and fails
// only at the SLP convergence stage (no service answers).
func TestBridgeForwardsUnknownServiceTypes(t *testing.T) {
	sim := simnet.New()
	var stats []engine.SessionStats
	deploy(t, sim, "upnp-to-slp", onSessionEnd(func(s engine.SessionStats) {
		stats = append(stats, s)
	}))
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:x"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	cp := ssdp.NewControlPoint(cliNode)
	done := false
	cp.Search("urn:scanner", 8*time.Second, func([]ssdp.SearchResult, error) { done = true })
	if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if len(stats) != 1 || stats[0].Err == nil {
		t.Fatalf("stats = %+v (expected a convergence failure for the unmatched type)", stats)
	}
}

// Session history is per-session: two sequential lookups through one
// bridge must not leak content between sessions (distinct XIDs echo
// correctly).
func TestBridgeSessionIsolation(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour")
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:x"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(200*time.Millisecond))
	for i := 0; i < 3; i++ {
		done := false
		var res slp.LookupResult
		ua.Lookup("service:printer", func(r slp.LookupResult) { res = r; done = true })
		if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
			t.Fatal(err)
		}
		if len(res.URLs) != 1 {
			t.Fatalf("round %d: urls = %v", i, res.URLs)
		}
	}
	if e.Counts().Completed != 3 || e.Counts().Failed != 0 {
		t.Fatalf("completed=%d failed=%d", e.Counts().Completed, e.Counts().Failed)
	}
}
