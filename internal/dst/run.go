package dst

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"starlink/internal/bench"
	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/provision"
	"starlink/internal/registry"
	"starlink/internal/simnet"
	"starlink/internal/trace"
)

// The simulated topology: one bridge host, one legacy service per
// protocol (the bench workload's printer in each spelling), clients on
// per-case subnets, and a driver node for raw traffic and mid-run
// control actions. The UPnP device IP must agree with bench.HTTPURL —
// the bridge dials the advertised location.
const (
	bridgeIP     = "10.0.0.5"
	upnpIP       = "10.0.0.7"
	slpIP        = "10.0.0.9"
	bonjourIP    = "10.0.0.11"
	driverIP     = "10.250.0.1"
	altEntryPort = 1427
)

// Config parameterizes Run with host-environment facts a scenario
// cannot know.
type Config struct {
	// ModelsDir is the directory reload scenarios hot-load (the
	// slp-to-upnp-alt model set). Empty means "examples/models"
	// relative to the working directory.
	ModelsDir string
	// Registry, when non-nil, is shared across runs to amortize model
	// parsing. Ignored when the scenario reloads: a reload mutates the
	// registry, so those runs always build a fresh one.
	Registry *registry.Registry
}

func (c Config) modelsDir() string {
	if c.ModelsDir != "" {
		return c.ModelsDir
	}
	return "examples/models"
}

// sharedRegistry amortizes builtin model parsing across runs that do
// not mutate the registry (same rationale as the bench package).
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

// ClientTally counts one case's client outcomes: Done lookups that
// returned at all, of which Hits carried at least one service URL.
type ClientTally struct {
	Done int
	Hits int
}

// FailedSession is one session that ended in error, with its
// flight-recorder trace when the engine's ring captured one.
type FailedSession struct {
	Case   string
	Origin string
	Err    string
	Trace  []trace.Event
}

// Result is everything one deterministic run produced: the identity
// (scenario, seed), the delivery-event trace that pins the
// interleaving, the final accounting surfaces, and the invariant
// violations (empty on a passing run).
type Result struct {
	Scenario *Scenario
	Seed     int64

	// TraceHash/TraceLines are the simulator's delivery-event trace,
	// captured at quiescence before teardown — the replay comparand.
	TraceHash  uint64
	TraceLines []string
	// VirtualElapsed is how much simulated time the run covered.
	VirtualElapsed time.Duration

	// Dispatch and Cases are the dispatcher's snapshot at quiescence:
	// classification counters, and per case the engine's counters,
	// gauges and lane accounting.
	Dispatch provision.DispatchCounters
	Cases    map[string]engine.Snapshot
	Started  map[string]int
	Ended    map[string]int
	Clients  map[string]ClientTally
	// LeaseDelta is outstanding pooled buffers after teardown minus
	// before setup; nonzero means a leak (or double release).
	LeaseDelta int64
	// MessageDelta is the hosted engines' message balance after
	// teardown, the engines a reload retired included
	// (provision.Snapshot.Messages);
	// nonzero means an owner dropped a message (or released one twice).
	MessageDelta int

	// Misdelivered lists, for a Distinct scenario, every URL a client
	// accepted that does not name the type it asked for.
	Misdelivered []string

	FailedSessions []FailedSession
	Violations     []Violation
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// sessionLog is the dispatcher's sink: it counts session starts and ends
// per case and keeps the failed ones. Its own mutex makes it safe from
// engine goroutines; reads happen only after quiescence.
type sessionLog struct {
	mu      sync.Mutex
	started map[string]int
	ended   map[string]int
	failed  []FailedSession
	// misdelivered becomes Result.Misdelivered.
	misdelivered []string
}

func (*sessionLog) Deployed(string, uint64)            {}
func (*sessionLog) Undeployed(string)                  {}
func (*sessionLog) Dropped(string, netapi.Addr, error) {}
func (*sessionLog) Classified(provision.ClassifyEvent) {}

func (l *sessionLog) SessionStart(caseName string, _ netapi.Addr, _ time.Time) {
	l.mu.Lock()
	l.started[caseName]++
	l.mu.Unlock()
}

func (l *sessionLog) SessionEnd(caseName string, s engine.SessionStats) {
	l.mu.Lock()
	l.ended[caseName]++
	if s.Err != nil {
		l.failed = append(l.failed, FailedSession{
			Case:   caseName,
			Origin: s.Origin.String(),
			Err:    s.Err.Error(),
			Trace:  s.Trace,
		})
	}
	l.mu.Unlock()
}

// Run executes one (scenario, seed) simulation to quiescence and
// checks the invariant catalog. The error return is for runs that
// could not be set up at all; a run that executed but violated
// invariants returns a Result with Violations set and a nil error.
//
// Runs must not execute concurrently in one process: the lease-balance
// invariant reads the process-global netapi.LeasedBuffers counter. The
// message balance is the dispatcher's own, read after Close.
func Run(sc *Scenario, seed int64, cfg Config) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var reg *registry.Registry
	var err error
	switch {
	case sc.Reload > 0:
		// The reload mutates the registry; never share one.
		reg, err = registry.Builtin()
	case cfg.Registry != nil:
		reg = cfg.Registry
	default:
		reg, err = sharedRegistry()
	}
	if err != nil {
		return nil, err
	}

	leases0 := netapi.LeasedBuffers()
	opts := []simnet.Option{
		simnet.WithSeed(seed),
		simnet.WithEventTrace(),
		simnet.WithLeasedDelivery(),
	}
	if sc.Faults != nil {
		opts = append(opts, simnet.WithFaults(sc.Faults))
	}
	sim := simnet.New(opts...)
	epoch := sim.Now()

	col := &sessionLog{started: map[string]int{}, ended: map[string]int{}}
	maxSessions, hosted := sc.MaxSessions, []string(nil)
	if maxSessions == 0 {
		maxSessions = 1024
	}
	if sc.HostOnly {
		hosted = sc.Cases
	}
	// Host every loaded case (nil filter) unless told otherwise:
	// multicast entry traffic may classify into any of them, and the
	// invariants account per case. The worker count is pinned — the
	// default tracks GOMAXPROCS, which must not influence a
	// deterministic schedule.
	d, err := provision.Deploy(context.Background(), reg, sim, bridgeIP, hosted,
		provision.WithSink(col),
		provision.WithEngineOptions(
			engine.WithIngestWorkers(4),
			engine.WithMaxSessions(maxSessions),
			engine.WithWindowJitter(bench.BridgeSLPWindowJitter, seed),
			engine.WithTraceRing(64),
		))
	if err != nil {
		return nil, err
	}

	if err := startServices(sim, seed, sc); err != nil {
		_ = d.Close()
		return nil, err
	}

	// cbErr carries the first error raised inside an event callback.
	// Callbacks are serialized by the simulator, and RunToQuiescence
	// synchronizes with them, so plain variables suffice.
	var cbErr error
	fail := func(err error) {
		if err != nil && cbErr == nil {
			cbErr = err
		}
	}

	tallies := map[string]*ClientTally{}
	for ci, caseName := range sc.Cases {
		tally := &ClientTally{}
		tallies[caseName] = tally
		for i := 0; i < sc.Clients; i++ {
			node, err := sim.NewNode(fmt.Sprintf("10.%d.%d.%d", ci+1, i/200, i%200+1))
			if err != nil {
				_ = d.Close()
				return nil, err
			}
			start := time.Millisecond + time.Duration(i)*sc.Stagger
			name, own := caseName, ""
			if sc.Distinct {
				own = distinctType(i)
			}
			node.After(start, func() { startClient(node, name, own, col, tally, fail) })
		}
	}

	driver, err := sim.NewNode(driverIP)
	if err != nil {
		_ = d.Close()
		return nil, err
	}
	if sc.Drain > 0 {
		driver.After(sc.Drain, func() { d.BeginDrain() })
	}
	if sc.Reload > 0 {
		// The raw SrvRequest the slp-to-upnp-alt entry (unicast :1427)
		// expects: what a native user agent sends to the multicast entry.
		altWire := (&slp.SrvRqst{Header: slp.Header{XID: 99, LangTag: "en"}, ServiceType: bench.SLPType}).Marshal()
		rawSock, err := driver.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			_ = d.Close()
			return nil, err
		}
		modelsDir := cfg.modelsDir()
		driver.After(sc.Reload, func() {
			if _, err := registry.LoadFS(reg, os.DirFS(modelsDir)); err != nil {
				fail(fmt.Errorf("dst: reload: %w", err))
				return
			}
			if err := d.Sync(); err != nil {
				fail(fmt.Errorf("dst: sync after reload: %w", err))
			}
		})
		for i := 0; i < sc.AltClients; i++ {
			at := sc.Reload + 2*time.Millisecond + time.Duration(i)*sc.Stagger
			driver.After(at, func() {
				fail(rawSock.Send(netapi.Addr{IP: bridgeIP, Port: altEntryPort}, altWire))
			})
		}
	}

	sim.RunToQuiescence()
	if cbErr != nil {
		_ = d.Close()
		return nil, cbErr
	}

	// Capture every surface — including the event trace — before
	// teardown: Close iterates internal maps, so its tail of
	// socket-close events is not order-deterministic and stays out of
	// the replay comparand.
	snap := d.Snapshot()
	col.mu.Lock()
	res := &Result{
		Scenario:       sc,
		Seed:           seed,
		TraceHash:      sim.TraceHash(),
		TraceLines:     sim.TraceLines(),
		VirtualElapsed: sim.Now().Sub(epoch),
		Dispatch:       snap.Dispatch,
		Cases:          snap.Cases,
		Started:        col.started,
		Ended:          col.ended,
		FailedSessions: col.failed,
		Misdelivered:   col.misdelivered,
		Clients:        map[string]ClientTally{},
	}
	col.mu.Unlock()
	for name, t := range tallies {
		res.Clients[name] = *t
	}

	_ = d.Close()
	sim.RunToQuiescence()
	res.LeaseDelta = netapi.LeasedBuffers() - leases0
	res.MessageDelta = d.Counts().Messages()
	res.Violations = checkInvariants(sc, res)
	return res, nil
}

// startServices starts the three legacy services every scenario can
// reach: the UPnP printer device (answering *-to-upnp cases), the SLP
// service agent (*-to-slp) and the Bonjour responder (*-to-bonjour).
// Response delays draw from per-service RNGs derived from the run
// seed, so they vary across seeds but never across runs of one seed.
// A Distinct scenario adds, per client index, an SLP agent and a Bonjour
// responder for that client's own type on hosts of their own, and a UPnP
// device when it drives a *-to-upnp case.
func startServices(sim *simnet.Net, seed int64, sc *Scenario) error {
	for i := 0; sc.Distinct && i < sc.Clients; i++ {
		own := distinctType(i)
		rng := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + k + int64(i))) }
		sn, err := sim.NewNode(fmt.Sprintf("10.0.9.%d", i+1))
		if err == nil {
			_, err = slp.NewServiceAgent(sn, "service:"+own, "service:"+own+"://"+sn.IP()+":515",
				slp.WithResponseDelay(bench.SLPResponseDelayMax, rng(100)))
		}
		if err != nil {
			return err
		}
		// Answers come within a few late-duplicate delays, so that one
		// session's duplicate reply lands while a later session holds
		// the same lent socket.
		bn, err := sim.NewNode(fmt.Sprintf("10.0.11.%d", i+1))
		if err == nil {
			_, err = dnssd.NewResponder(bn, own+".local", "service:"+own+"://"+bn.IP()+":515",
				dnssd.WithAnswerDelay(5*time.Millisecond, 60*time.Millisecond, rng(200)))
		}
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(sc.Cases, func(c string) bool { return strings.HasSuffix(c, "-to-upnp") }) {
			continue
		}
		un, err := sim.NewNode(fmt.Sprintf("10.0.7.%d", i+1))
		if err == nil {
			_, err = upnp.NewDevice(un, "urn:"+own, "service:"+own+"://"+un.IP()+":515", 5431,
				upnp.WithSSDPDelay(5*time.Millisecond, 60*time.Millisecond, rng(300)))
		}
		if err != nil {
			return err
		}
	}
	un, err := sim.NewNode(upnpIP)
	if err != nil {
		return err
	}
	if _, err := upnp.NewDevice(un, bench.UPnPType, bench.HTTPURL, 5431,
		upnp.WithSSDPDelay(bench.SSDPDeviceDelayMin, bench.SSDPDeviceDelayMax,
			rand.New(rand.NewSource(seed*7919+1)))); err != nil {
		return err
	}
	sn, err := sim.NewNode(slpIP)
	if err != nil {
		return err
	}
	if _, err := slp.NewServiceAgent(sn, bench.SLPType, bench.ServiceURL,
		slp.WithResponseDelay(bench.SLPResponseDelayMax,
			rand.New(rand.NewSource(seed*7919+2)))); err != nil {
		return err
	}
	bn, err := sim.NewNode(bonjourIP)
	if err != nil {
		return err
	}
	if _, err := dnssd.NewResponder(bn, bench.DNSName, bench.ServiceURL,
		dnssd.WithAnswerDelay(bench.MDNSAnswerDelayMin, bench.MDNSAnswerDelayMax,
			rand.New(rand.NewSource(seed*7919+3)))); err != nil {
		return err
	}
	return nil
}

// distinctType is client i's own service type in a Distinct scenario;
// fixed width, so no type's name is a prefix of another's.
func distinctType(i int) string { return fmt.Sprintf("printer%02d", i) }

// startClient fires one protocol-native lookup appropriate for the
// case's initiator side — for the client's own type when own is set,
// else the shared printer. Wide client windows keep slow bridged paths
// (SLP convergence, fault-delayed replies) inside the window; a client
// whose window closes empty still counts as Done.
func startClient(node netapi.Node, caseName, own string, col *sessionLog, tally *ClientTally, fail func(error)) {
	record := func(urls []string) {
		col.mu.Lock()
		tally.Done++
		if len(urls) > 0 {
			tally.Hits++
		}
		for _, u := range urls {
			if own != "" && !strings.Contains(u, own+":") {
				col.misdelivered = append(col.misdelivered,
					fmt.Sprintf("%s client at %s asked for %s and accepted %s", caseName, node.IP(), own, u))
			}
		}
		col.mu.Unlock()
	}
	slpType, dnsName := bench.SLPType, bench.DNSName
	if own != "" {
		slpType, dnsName = "service:"+own, own+".local"
	}
	switch {
	case strings.HasPrefix(caseName, "slp-"):
		ua := slp.NewUserAgent(node, slp.WithConvergenceWait(bench.SLPConvergenceWait))
		ua.Lookup(slpType, func(r slp.LookupResult) { record(r.URLs) })
	case strings.HasPrefix(caseName, "upnp-"):
		cp := upnp.NewControlPoint(node, upnp.WithMX(bench.WideMX))
		cp.Discover(bench.UPnPType, func(r upnp.DiscoverResult) { record(r.ServiceURLs) })
	case strings.HasPrefix(caseName, "bonjour-"):
		b := dnssd.NewBrowser(node, dnssd.WithBrowseWindow(bench.WideBrowse))
		b.Browse(dnsName, func(r dnssd.BrowseResult) { record(r.URLs) })
	default:
		fail(fmt.Errorf("dst: case %q has no known initiator protocol", caseName))
	}
}
