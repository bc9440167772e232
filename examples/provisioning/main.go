// Dynamic bridge provisioning: one daemon, every case, zero restarts.
//
// This example shows the runtime half of the paper's headline claim —
// bridges assembled from declarative models when heterogeneous parties
// actually meet. A single dispatcher hosts all six builtin cases at
// once behind shared entry listeners (no port conflicts, no duplicate
// deliveries, no loops between opposite-direction cases), classifies
// each inbound payload to the right case, and — when a seventh case is
// dropped into the model directory as XML files — deploys it with zero
// restart and bridges a session through it. At the end the dispatcher
// drains gracefully: Shutdown(ctx) lets live sessions finish before
// releasing everything.
//
// Run with: go run ./examples/provisioning
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/parser"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/provision"
	"starlink/internal/registry"
	"starlink/internal/simnet"
	"starlink/internal/xpath"
)

func main() {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		log.Fatal(err)
	}

	// One dispatcher hosts every loaded case on one bridge node. One
	// observer carries every signal: classifications (including
	// ambiguities), deploys, and per-case sessions.
	disp, err := fw.DeployDispatcher(context.Background(), "10.0.0.5", nil,
		starlink.WithObserver(starlink.Hooks{
			Classify: func(c starlink.Classification) {
				if c.Ambiguous {
					fmt.Printf("  %v\n", c.Err)
				}
			},
			Deploy: func(e starlink.CaseEvent) {
				fmt.Printf("  deployed %s (generation %d)\n", e.Case, e.Generation)
			},
			SessionEnd: func(s starlink.SessionStats) {
				if s.Err == nil {
					fmt.Printf("  [%s] bridged a session from %s in %s\n", s.Case, s.Origin, s.Duration)
				}
			},
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer disp.Close()
	fmt.Printf("dispatcher hosts %d cases: %v\n\n", len(disp.Cases()), disp.Cases())

	// Legacy services: a Bonjour printer and a UPnP printer.
	devNode, err := sim.NewNode("10.0.0.7")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dnssd.NewResponder(devNode, "printer.local", "service:printer://10.0.0.7:515"); err != nil {
		log.Fatal(err)
	}
	upnpNode, err := sim.NewNode("10.0.0.8")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := upnp.NewDevice(upnpNode, "urn:printer", "http://10.0.0.8:5431/print", 5431); err != nil {
		log.Fatal(err)
	}

	// A legacy SLP client looks up the printer. Its multicast request
	// reaches the shared SLP listener, where TWO cases are candidates
	// (slp-to-bonjour and slp-to-upnp): the observer reports the
	// ambiguity (tagged ErrAmbiguousPayload) and the dispatcher routes
	// deterministically.
	cliNode, err := sim.NewNode("10.0.0.1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SLP lookup against the shared multicast listener:")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(time.Second))
	done := false
	ua.Lookup("service:printer", func(r slp.LookupResult) {
		done = true
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		for _, u := range r.URLs {
			fmt.Printf("  SLP client got: %s\n", u)
		}
	})
	if err := rt.RunUntil(func() bool { return done }, time.Minute); err != nil {
		log.Fatal(err)
	}

	// Now the dynamic part: drop a seventh case into a model directory
	// the daemon watches. The fixtures under examples/models define an
	// alternate SLP entry (unicast on port 1427) for the Fig. 4 chain.
	dir, err := os.MkdirTemp("", "starlink-models")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ireg := fw.Registry().Backend().(*registry.Registry)
	watcher := provision.NewWatcher(ireg, dir, 0, func(registry.LoadResult) {
		if err := disp.Sync(); err != nil {
			log.Fatal(err)
		}
	}, nil)

	fmt.Println("\ndropping slp-to-upnp-alt model files into the watched directory...")
	for _, name := range []string{"slp-server-alt.xml", "slp-to-upnp-alt.xml"} {
		data, err := os.ReadFile(filepath.Join("examples", "models", name))
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if err := watcher.Reload(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dispatcher now hosts %d cases: %v\n\n", len(disp.Cases()), disp.Cases())

	// Drive the new case: a raw SLP SrvRequest sent unicast to the new
	// entry endpoint, answered through SSDP + HTTP by the UPnP printer.
	wire := (&slp.SrvRqst{Header: slp.Header{XID: 99, LangTag: "en"}, ServiceType: "service:printer"}).Marshal()
	spec, err := ireg.Spec("SLP")
	if err != nil {
		log.Fatal(err)
	}
	p, err := parser.New(spec, ireg.Types())
	if err != nil {
		log.Fatal(err)
	}
	urlPath := xpath.MustCompile("/field/primitiveField[label='URLEntry']/value")

	altDone := false
	sock, err := cliNode.OpenUDP(0, func(pkt netapi.Packet) {
		reply, err := p.Parse(pkt.Data)
		if err != nil {
			log.Fatal(err)
		}
		v, err := urlPath.Get(reply)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  SLP client got (via the hot-deployed case): %s\n", v.Text())
		altDone = true
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sock.Close()
	fmt.Println("unicast SLP lookup against the hot-deployed entry on 10.0.0.5:1427:")
	if err := sock.Send(netapi.Addr{IP: "10.0.0.5", Port: 1427}, wire); err != nil {
		log.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return altDone }, time.Minute); err != nil {
		log.Fatal(err)
	}

	m := disp.Metrics()
	fmt.Printf("\ndispatch counters: dispatched=%d ambiguous=%d suppressed=%d unroutable=%d parseErrs=%d\n",
		m.Dispatch.Dispatched, m.Dispatch.Ambiguous, m.Dispatch.Suppressed,
		m.Dispatch.Unroutable, m.Dispatch.ParseErrors)
	for name, st := range m.Cases {
		if st.Completed > 0 {
			fmt.Printf("  [%s] completed=%d\n", name, st.Completed)
		}
	}

	// Graceful teardown: drain instead of cutting sessions off. With
	// nothing live this completes immediately; with live sessions it
	// would let them finish (bounded by the context deadline).
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := disp.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndispatcher drained and closed: state=%s\n", disp.State())
}
