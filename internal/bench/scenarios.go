package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
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

// The bridge scenarios measure steady-state translation, so every run
// shares one registry with a warm compiled-case cache — model loading
// has its own benchmark (BenchmarkModelLoad) and re-parsing the XML
// corpus per interaction would swamp the per-message numbers the
// paper's Fig. 12(b) reports. The registry is runtime-independent and
// concurrency-safe, so parallel units share it too.
var (
	sharedRegOnce sync.Once
	sharedReg     *registry.Registry
	sharedRegErr  error
)

func sharedRegistry() (*registry.Registry, error) {
	sharedRegOnce.Do(func() {
		sharedReg, sharedRegErr = registry.Builtin()
	})
	return sharedReg, sharedRegErr
}

// deployBridge runs one case of the shared registry on a fresh bridge
// host at 10.0.0.5 of the simulator, the way every bridge is deployed: a
// dispatcher hosting the one case, which owns the host.
func deployBridge(sim *simnet.Net, caseName string, sink provision.Sink, opts ...engine.Option) (*provision.Dispatcher, error) {
	reg, err := sharedRegistry()
	if err != nil {
		return nil, err
	}
	return provision.Deploy(context.Background(), reg, sim, "10.0.0.5", []string{caseName},
		provision.WithSink(sink), provision.WithEngineOptions(opts...))
}

// sessionEnds is the sink of a measured run: it keeps the finished
// sessions' stats and ignores every other event. The simulator runs one
// event's work at a time, so it needs no lock.
type sessionEnds []engine.SessionStats

func (*sessionEnds) Deployed(string, uint64)                     {}
func (*sessionEnds) Undeployed(string)                           {}
func (*sessionEnds) SessionStart(string, netapi.Addr, time.Time) {}
func (*sessionEnds) Dropped(string, netapi.Addr, error)          {}
func (*sessionEnds) Classified(provision.ClassifyEvent)          {}

func (c *sessionEnds) SessionEnd(_ string, s engine.SessionStats) { *c = append(*c, s) }

// Universe is the service type of the benchmark workload in each
// protocol's spelling (the paper's "simple test service").
const (
	SLPType    = "service:printer"
	UPnPType   = "urn:printer"
	DNSName    = "printer.local"
	ServiceURL = "service:printer://10.0.0.9:515"
	HTTPURL    = "http://10.0.0.7:5431/svc"
)

// RunNative measures one native lookup of the given protocol
// ("SLP", "Bonjour" or "UPnP") on a fresh simulator seeded with seed,
// returning the client-observed response time — one sample of
// Fig. 12(a).
func RunNative(protocol string, seed int64) (time.Duration, error) {
	sim := simnet.New(simnet.WithSeed(seed))
	rng := rand.New(rand.NewSource(seed * 7919))
	switch protocol {
	case "SLP":
		return runNativeSLP(sim, rng)
	case "Bonjour":
		return runNativeBonjour(sim, rng)
	case "UPnP":
		return runNativeUPnP(sim, rng)
	default:
		return 0, fmt.Errorf("bench: unknown protocol %q", protocol)
	}
}

func runNativeSLP(sim *simnet.Net, rng *rand.Rand) (time.Duration, error) {
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, SLPType, ServiceURL,
		slp.WithResponseDelay(SLPResponseDelayMax, rng)); err != nil {
		return 0, err
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode,
		slp.WithConvergenceWait(SLPConvergenceWait),
		slp.WithWaitJitter(SLPWaitJitter, rng))
	var res slp.LookupResult
	done := false
	ua.Lookup(SLPType, func(r slp.LookupResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	if len(res.URLs) != 1 {
		return 0, fmt.Errorf("bench: native SLP lookup returned %d urls", len(res.URLs))
	}
	return res.Elapsed, nil
}

func runNativeBonjour(sim *simnet.Net, rng *rand.Rand) (time.Duration, error) {
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, DNSName, ServiceURL,
		dnssd.WithAnswerDelay(MDNSAnswerDelayMin, MDNSAnswerDelayMax, rng)); err != nil {
		return 0, err
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	b := dnssd.NewBrowser(cliNode,
		dnssd.WithBrowseWindow(BonjourBrowseWindow),
		dnssd.WithWindowJitter(BonjourWindowJitter, rng))
	var res dnssd.BrowseResult
	done := false
	b.Browse(DNSName, func(r dnssd.BrowseResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	if len(res.URLs) != 1 {
		return 0, fmt.Errorf("bench: native Bonjour browse returned %d urls", len(res.URLs))
	}
	return res.Elapsed, nil
}

func runNativeUPnP(sim *simnet.Net, rng *rand.Rand) (time.Duration, error) {
	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, UPnPType, HTTPURL, 5431,
		upnp.WithSSDPDelay(SSDPDeviceDelayMin, SSDPDeviceDelayMax, rng)); err != nil {
		return 0, err
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	cp := upnp.NewControlPoint(cliNode,
		upnp.WithMX(UPnPMXWindow),
		upnp.WithMXJitter(UPnPMXJitter, rng))
	var res upnp.DiscoverResult
	done := false
	cp.Discover(UPnPType, func(r upnp.DiscoverResult) { res = r; done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	if len(res.ServiceURLs) != 1 {
		return 0, fmt.Errorf("bench: native UPnP discover returned %d urls", len(res.ServiceURLs))
	}
	return res.Elapsed, nil
}

// RunBridge measures one bridged interaction for a Fig. 12(b) case on a
// fresh simulator, returning the Starlink translation time (first
// message received by the framework → translated response sent).
func RunBridge(caseName string, seed int64) (time.Duration, error) {
	sim := simnet.New(simnet.WithSeed(seed))
	rng := rand.New(rand.NewSource(seed * 6007))
	var stats sessionEnds
	bridge, err := deployBridge(sim, caseName, &stats,
		engine.WithWindowJitter(BridgeSLPWindowJitter, seed*6007))
	if err != nil {
		return 0, err
	}
	defer bridge.Close()

	if err := startBridgeWorkload(sim, rng, caseName); err != nil {
		return 0, err
	}
	err = sim.RunUntil(func() bool {
		return len(stats) > 0 && (stats[0].Err != nil || !stats[0].ReplyAt.IsZero())
	}, 2*time.Minute)
	// Let the tail of the exchange (description GET, client windows)
	// finish so sockets close cleanly.
	sim.RunToQuiescence()
	if err != nil {
		return 0, err
	}
	if stats[0].Err != nil {
		return 0, stats[0].Err
	}
	return stats[0].Duration, nil
}

// startBridgeWorkload starts the legacy service and client appropriate
// for a case.
func startBridgeWorkload(sim *simnet.Net, rng *rand.Rand, caseName string) error {
	startSLPService := func() error {
		n, _ := sim.NewNode("10.0.0.9")
		_, err := slp.NewServiceAgent(n, SLPType, ServiceURL,
			slp.WithResponseDelay(SLPResponseDelayMax, rng))
		return err
	}
	startBonjourService := func() error {
		n, _ := sim.NewNode("10.0.0.9")
		_, err := dnssd.NewResponder(n, DNSName, ServiceURL,
			dnssd.WithAnswerDelay(MDNSAnswerDelayMin, MDNSAnswerDelayMax, rng))
		return err
	}
	startUPnPDevice := func() error {
		n, _ := sim.NewNode("10.0.0.7")
		_, err := upnp.NewDevice(n, UPnPType, HTTPURL, 5431,
			upnp.WithSSDPDelay(SSDPDeviceDelayMin, SSDPDeviceDelayMax, rng))
		return err
	}

	switch caseName {
	case "slp-to-upnp":
		if err := startUPnPDevice(); err != nil {
			return err
		}
		n, _ := sim.NewNode("10.0.0.1")
		ua := slp.NewUserAgent(n, slp.WithConvergenceWait(SLPConvergenceWait))
		ua.Lookup(SLPType, func(slp.LookupResult) {})
	case "slp-to-bonjour":
		if err := startBonjourService(); err != nil {
			return err
		}
		n, _ := sim.NewNode("10.0.0.1")
		ua := slp.NewUserAgent(n, slp.WithConvergenceWait(SLPConvergenceWait))
		ua.Lookup(SLPType, func(slp.LookupResult) {})
	case "upnp-to-slp":
		if err := startSLPService(); err != nil {
			return err
		}
		n, _ := sim.NewNode("10.0.0.1")
		cp := upnp.NewControlPoint(n, upnp.WithMX(WideMX))
		cp.Discover(UPnPType, func(upnp.DiscoverResult) {})
	case "upnp-to-bonjour":
		if err := startBonjourService(); err != nil {
			return err
		}
		n, _ := sim.NewNode("10.0.0.1")
		cp := upnp.NewControlPoint(n, upnp.WithMX(UPnPMXWindow))
		cp.Discover(UPnPType, func(upnp.DiscoverResult) {})
	case "bonjour-to-upnp":
		if err := startUPnPDevice(); err != nil {
			return err
		}
		n, _ := sim.NewNode("10.0.0.1")
		b := dnssd.NewBrowser(n, dnssd.WithBrowseWindow(BonjourBrowseWindow))
		b.Browse(DNSName, func(dnssd.BrowseResult) {})
	case "bonjour-to-slp":
		if err := startSLPService(); err != nil {
			return err
		}
		n, _ := sim.NewNode("10.0.0.1")
		b := dnssd.NewBrowser(n, dnssd.WithBrowseWindow(WideBrowse))
		b.Browse(DNSName, func(dnssd.BrowseResult) {})
	default:
		return fmt.Errorf("bench: unknown case %q", caseName)
	}
	return nil
}

// RunTable12a reproduces Fig. 12(a): iters native lookups per protocol.
func RunTable12a(iters int, baseSeed int64) (map[string]*Stats, error) {
	out := map[string]*Stats{}
	for _, proto := range NativeOrder {
		st := &Stats{}
		for i := 0; i < iters; i++ {
			d, err := RunNative(proto, baseSeed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("bench: %s iteration %d: %w", proto, i, err)
			}
			st.Add(d)
		}
		out[proto] = st
	}
	return out, nil
}

// RunTable12b reproduces Fig. 12(b): iters bridged interactions per
// case.
func RunTable12b(iters int, baseSeed int64) (map[string]*Stats, error) {
	out := map[string]*Stats{}
	for _, name := range CaseOrder {
		st := &Stats{}
		for i := 0; i < iters; i++ {
			d, err := RunBridge(name, baseSeed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("bench: %s iteration %d: %w", name, i, err)
			}
			st.Add(d)
		}
		out[name] = st
	}
	return out, nil
}

// Fig12aTable runs Fig. 12(a) and renders it exactly as
// cmd/starlink-bench prints it, so the command's output and
// TestFig12Golden are the same bytes.
func Fig12aTable(iters int, baseSeed int64) (string, error) {
	natives, err := RunTable12a(iters, baseSeed)
	if err != nil {
		return "", err
	}
	return Table(
		fmt.Sprintf("Fig. 12(a) — Response time measures for legacy discovery protocols (ms, %d runs)", iters),
		NativeOrder, natives, Fig12a), nil
}

// Fig12bTable is Fig12aTable for Fig. 12(b).
func Fig12bTable(iters int, baseSeed int64) (string, error) {
	bridges, err := RunTable12b(iters, baseSeed)
	if err != nil {
		return "", err
	}
	return Table(
		fmt.Sprintf("Fig. 12(b) — Translation times of Starlink connectors (ms, %d runs)", iters),
		CaseOrder, bridges, Fig12b), nil
}
