package starlink_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/simnet"
)

// Example bridges an SLP client to a Bonjour service at runtime. Three
// parties run on the deterministic network simulator: a legacy Bonjour
// (mDNS) responder advertising a printer, a legacy SLP user agent
// looking that printer up, and a bridge deployed from the
// "slp-to-bonjour" merged automaton — models only, no protocol-specific
// code. The SLP client receives an ordinary SLP reply although no SLP
// service exists anywhere on the network.
func Example() {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		panic(err)
	}

	// The context governs the bridge's lifetime: cancelling it
	// undeploys. Translation constants may reference deployment
	// variables as ${name}; WithVars supplies them.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bridge, err := fw.DeployBridge(ctx, "10.0.0.5", "slp-to-bonjour",
		starlink.WithVars(map[string]string{"example.var": "x"}),
		starlink.WithObserver(starlink.Hooks{
			SessionEnd: func(s starlink.SessionStats) {
				fmt.Printf("bridge: session translated in %s (err %v)\n", s.Duration, s.Err)
			},
		}))
	if err != nil {
		panic(err)
	}
	defer bridge.Close()
	fmt.Printf("bridge %s: state=%s\n", bridge.Case(), bridge.State())

	// The legacy service has never heard of SLP.
	svcNode, err := sim.NewNode("10.0.0.9")
	if err != nil {
		panic(err)
	}
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		panic(err)
	}

	// The legacy client has never heard of Bonjour.
	cliNode, err := sim.NewNode("10.0.0.1")
	if err != nil {
		panic(err)
	}
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond))
	done := false
	ua.Lookup("service:printer", func(r slp.LookupResult) {
		done = true
		fmt.Printf("SLP client: lookup finished in %s (err %v), %d URL(s)\n", r.Elapsed, r.Err, len(r.URLs))
		for _, u := range r.URLs {
			fmt.Printf("SLP client: found %s\n", u)
		}
	})
	if err := rt.RunUntil(func() bool { return done }, time.Minute); err != nil {
		panic(err)
	}

	m := bridge.Metrics()
	fmt.Printf("bridge metrics: completed=%d failed=%d\n", m.Sessions.Completed, m.Sessions.Failed)
	// Output:
	// bridge slp-to-bonjour: state=running
	// bridge: session translated in 599.372µs (err <nil>)
	// SLP client: lookup finished in 500ms (err <nil>), 1 URL(s)
	// SLP client: found service:printer://10.0.0.9:515
	// bridge metrics: completed=1 failed=0
}

// ExampleDispatcher_Sync hosts every builtin case on one dispatcher and
// deploys a seventh at runtime, with zero restart. The six cases share
// entry listeners: no port conflicts, no duplicate deliveries, no loops
// between opposite-direction cases. Each inbound payload is classified
// to its case; an SLP lookup matches two cases and is routed
// deterministically. Loading the seventh case's models into the
// registry and calling Sync deploys it, and a session is bridged
// through it. Shutdown drains: live sessions finish before everything
// is released, and each case's undeploy is reported once, in name
// order.
func ExampleDispatcher_Sync() {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		panic(err)
	}

	// One observer carries every signal: classifications (including
	// ambiguities), deploys, undeploys and per-case sessions.
	disp, err := fw.DeployDispatcher(context.Background(), "10.0.0.5", nil,
		starlink.WithObserver(starlink.Hooks{
			Classify: func(c starlink.Classification) {
				if c.Ambiguous {
					fmt.Printf("  ambiguous %s %s matches %v; dispatched to %s\n",
						c.Protocol, c.Message, c.Candidates, c.Case)
				}
			},
			Deploy: func(e starlink.CaseEvent) {
				fmt.Printf("deployed %s (generation %d)\n", e.Case, e.Generation)
			},
			Undeploy: func(e starlink.CaseEvent) {
				fmt.Printf("undeployed %s\n", e.Case)
			},
			SessionEnd: func(s starlink.SessionStats) {
				fmt.Printf("  [%s] bridged a session in %s (err %v)\n", s.Case, s.Duration, s.Err)
			},
		}))
	if err != nil {
		panic(err)
	}
	defer disp.Close()
	fmt.Printf("dispatcher hosts %d cases: %v\n", len(disp.Cases()), disp.Cases())

	// Legacy services: a Bonjour printer and a UPnP printer.
	devNode, err := sim.NewNode("10.0.0.7")
	if err != nil {
		panic(err)
	}
	if _, err := dnssd.NewResponder(devNode, "printer.local", "service:printer://10.0.0.7:515"); err != nil {
		panic(err)
	}
	upnpNode, err := sim.NewNode("10.0.0.8")
	if err != nil {
		panic(err)
	}
	if _, err := upnp.NewDevice(upnpNode, "urn:printer", "http://10.0.0.8:5431/print", 5431); err != nil {
		panic(err)
	}

	// A legacy SLP client's multicast lookup reaches the shared SLP
	// listener, where slp-to-bonjour and slp-to-upnp both match.
	cliNode, err := sim.NewNode("10.0.0.1")
	if err != nil {
		panic(err)
	}
	fmt.Println("SLP lookup against the shared multicast listener:")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(time.Second))
	done := false
	ua.Lookup("service:printer", func(r slp.LookupResult) {
		done = true
		fmt.Printf("  SLP client got %v (err %v)\n", r.URLs, r.Err)
	})
	if err := rt.RunUntil(func() bool { return done }, time.Minute); err != nil {
		panic(err)
	}

	// The seventh case: an alternate SLP entry (unicast on port 1427)
	// for the SLP → SSDP → HTTP chain, loaded from model files.
	reg := fw.Registry()
	read := func(name string) string {
		doc, err := os.ReadFile(filepath.Join("examples", "models", name))
		if err != nil {
			panic(err)
		}
		return string(doc)
	}
	if err := reg.LoadAutomaton("slp-server-alt", read("slp-server-alt.xml")); err != nil {
		panic(err)
	}
	if err := reg.LoadMerged(read("slp-to-upnp-alt.xml")); err != nil {
		panic(err)
	}
	fmt.Println("loading slp-to-upnp-alt and syncing:")
	if err := disp.Sync(); err != nil {
		panic(err)
	}
	fmt.Printf("dispatcher hosts %d cases\n", len(disp.Cases()))

	// A raw SLP SrvRqst sent unicast to the new entry endpoint is
	// answered through SSDP and HTTP by the UPnP printer.
	fmt.Println("unicast SLP lookup against 10.0.0.5:1427:")
	altDone := false
	sock, err := cliNode.OpenUDP(0, func(pkt netapi.Packet) {
		altDone = true
		msg, err := slp.Parse(pkt.Data)
		if err != nil {
			panic(err)
		}
		rply := msg.(*slp.SrvRply)
		fmt.Printf("  SLP client got %v, xid %d\n", rply.URLs, rply.XID)
	})
	if err != nil {
		panic(err)
	}
	defer sock.Close()
	rqst := &slp.SrvRqst{Header: slp.Header{XID: 99, LangTag: "en"}, ServiceType: "service:printer"}
	if err := sock.Send(netapi.Addr{IP: "10.0.0.5", Port: 1427}, rqst.Marshal()); err != nil {
		panic(err)
	}
	if err := rt.RunUntil(func() bool { return altDone }, time.Minute); err != nil {
		panic(err)
	}

	m := disp.Metrics()
	fmt.Printf("dispatch counters: dispatched=%d ambiguous=%d suppressed=%d unroutable=%d parseErrs=%d\n",
		m.Dispatch.Dispatched, m.Dispatch.Ambiguous, m.Dispatch.Suppressed,
		m.Dispatch.Unroutable, m.Dispatch.ParseErrors)
	names := make([]string, 0, len(m.Cases))
	for name := range m.Cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if st := m.Cases[name]; st.Completed > 0 {
			fmt.Printf("  [%s] completed=%d\n", name, st.Completed)
		}
	}

	// Graceful teardown: with nothing live the drain completes at once;
	// live sessions would finish first, bounded by the context.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := disp.Shutdown(shutdownCtx); err != nil {
		panic(err)
	}
	fmt.Printf("dispatcher drained: state=%s\n", disp.State())
	// Output:
	// deployed bonjour-to-slp (generation 18)
	// deployed bonjour-to-upnp (generation 18)
	// deployed slp-to-bonjour (generation 18)
	// deployed slp-to-upnp (generation 18)
	// deployed upnp-to-bonjour (generation 18)
	// deployed upnp-to-slp (generation 18)
	// dispatcher hosts 6 cases: [bonjour-to-slp bonjour-to-upnp slp-to-bonjour slp-to-upnp upnp-to-bonjour upnp-to-slp]
	// SLP lookup against the shared multicast listener:
	//   ambiguous SLP SLPSrvRequest matches [slp-to-bonjour slp-to-upnp]; dispatched to slp-to-bonjour
	//   [slp-to-bonjour] bridged a session in 655.872µs (err <nil>)
	//   SLP client got [service:printer://10.0.0.7:515] (err <nil>)
	// loading slp-to-upnp-alt and syncing:
	// deployed slp-to-upnp-alt (generation 20)
	// dispatcher hosts 7 cases
	// unicast SLP lookup against 10.0.0.5:1427:
	//   [slp-to-upnp-alt] bridged a session in 1.260735ms (err <nil>)
	//   SLP client got [http://10.0.0.8:5431/print], xid 99
	// dispatch counters: dispatched=2 ambiguous=1 suppressed=2 unroutable=0 parseErrs=0
	//   [slp-to-bonjour] completed=1
	//   [slp-to-upnp-alt] completed=1
	// undeployed bonjour-to-slp
	// undeployed bonjour-to-upnp
	// undeployed slp-to-bonjour
	// undeployed slp-to-upnp
	// undeployed slp-to-upnp-alt
	// undeployed upnp-to-bonjour
	// undeployed upnp-to-slp
	// dispatcher drained: state=closed
}
