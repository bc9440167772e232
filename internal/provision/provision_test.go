package provision

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/composer"
	"starlink/internal/engine"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/parser"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
	"starlink/internal/registry"
	"starlink/internal/serrors"
	"starlink/internal/simnet"
	"starlink/internal/xpath"
)

// fixturesDir is the shipped on-disk model set for the alternate
// Fig. 4 case (examples/models).
const fixturesDir = "../../examples/models"

func builtin(t *testing.T) *registry.Registry {
	t.Helper()
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// copyFixtures copies the shipped model fixtures into a fresh temp
// directory and returns it.
func copyFixtures(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(fixturesDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(fixturesDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDispatcherHostsAllCases is the multi-tenant core claim: one
// dispatcher hosts all six builtin cases at once behind shared
// listeners, an SLP lookup and a UPnP M-SEARCH each reach the right
// case, and the deployment's own multicast requests are suppressed
// rather than bridged back through the opposite-direction cases.
func TestDispatcherHostsAllCases(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	var log classifyLog
	d := NewDispatcher(reg, node, WithSink(&log))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Cases(); len(got) != 6 {
		t.Fatalf("cases = %v", got)
	}

	devNode, err := sim.NewNode("10.0.0.7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnssd.NewResponder(devNode, "printer.local", "service:printer://10.0.0.7:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, err := sim.NewNode("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	done := false
	var urls []string
	slp.NewUserAgent(cliNode, slp.WithConvergenceWait(time.Second)).
		Lookup("service:printer", func(r slp.LookupResult) {
			done = true
			if r.Err != nil {
				t.Error(r.Err)
			}
			urls = r.URLs
		})
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(urls) != 1 || urls[0] != "service:printer://10.0.0.7:515" {
		t.Fatalf("urls = %v", urls)
	}

	// The SLP request was ambiguous between slp-to-bonjour and
	// slp-to-upnp; the lexicographically first case must have won.
	stats := d.Counts().Cases
	if stats["slp-to-bonjour"].Completed != 1 {
		t.Errorf("slp-to-bonjour stats = %+v", stats["slp-to-bonjour"].Counters)
	}
	if stats["slp-to-upnp"].Completed != 0 {
		t.Errorf("slp-to-upnp should not have bridged: %+v", stats["slp-to-upnp"].Counters)
	}
	dc := d.Counts().Dispatch
	if dc.Ambiguous != 1 || dc.Dispatched != 1 {
		t.Errorf("dispatch counters = %+v", dc)
	}
	// The bridge's own multicast DNSQuestion reached the shared mDNS
	// listener and must have been suppressed, not bridged through
	// bonjour-to-*.
	if dc.Suppressed == 0 {
		t.Errorf("expected egress suppression, counters = %+v", dc)
	}
	if stats["bonjour-to-slp"].Completed != 0 || stats["bonjour-to-upnp"].Completed != 0 {
		t.Errorf("opposite-direction cases bridged our own request: %+v, %+v",
			stats["bonjour-to-slp"].Counters, stats["bonjour-to-upnp"].Counters)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	foundAmbig := false
	for _, ev := range log.events {
		if ev.Ambiguous && ev.Case == "slp-to-bonjour" && len(ev.Candidates) == 2 &&
			errors.Is(ev.Err, serrors.ErrAmbiguousPayload) && strings.Contains(ev.Err.Error(), "matches cases") {
			foundAmbig = true
		}
	}
	if !foundAmbig {
		t.Errorf("ambiguous dispatch was not reported: %+v", log.events)
	}
}

// classifyLog is a Sink that keeps the classification events and ignores
// the rest.
type classifyLog struct {
	mu     sync.Mutex
	events []ClassifyEvent
}

func (*classifyLog) Deployed(string, uint64)                     {}
func (*classifyLog) Undeployed(string)                           {}
func (*classifyLog) SessionStart(string, netapi.Addr, time.Time) {}
func (*classifyLog) SessionEnd(string, engine.SessionStats)      {}
func (*classifyLog) Dropped(string, netapi.Addr, error)          {}

func (l *classifyLog) Classified(ev ClassifyEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// TestDispatcherReverseCase drives a UPnP control point against the
// hosted upnp-to-* cases: the M-SEARCH classifies on the shared SSDP
// listener and the mid-session description GET classifies on the
// shared HTTP listener via the awaiting-session probe.
func TestDispatcherReverseCase(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(reg, node)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	devNode, err := sim.NewNode("10.0.0.7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnssd.NewResponder(devNode, "printer.local", "service:printer://10.0.0.7:515"); err != nil {
		t.Fatal(err)
	}
	cpNode, err := sim.NewNode("10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	done := false
	upnp.NewControlPoint(cpNode).Discover("urn:printer", func(r upnp.DiscoverResult) {
		done = true
		if r.Err != nil {
			t.Error(r.Err)
		}
	})
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := d.Counts().Cases["upnp-to-bonjour"]; st.Completed != 1 {
		t.Errorf("upnp-to-bonjour stats = %+v", st.Counters)
	}
}

// slpUnicastLookup drives one raw SLP SrvRequest to addr and returns
// the replied URL.
func slpUnicastLookup(t *testing.T, sim *simnet.Net, reg *registry.Registry, cliNode netapi.Node, addr netapi.Addr) (string, bool) {
	t.Helper()
	spec, err := reg.Spec("SLP")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := composer.New(spec, reg.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := message.New("SLP", "SLPSrvRequest")
	req.AddPrimitive("Version", "Integer", message.Int(2))
	req.AddPrimitive("FunctionID", "Integer", message.Int(1))
	req.AddPrimitive("XID", "Integer", message.Int(7))
	req.AddPrimitive("LangTag", "String", message.Str("en"))
	req.AddPrimitive("SRVType", "String", message.Str("service:printer"))
	wire, err := comp.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parser.New(spec, reg.Types())
	if err != nil {
		t.Fatal(err)
	}
	urlPath := xpath.MustCompile("/field/primitiveField[label='URLEntry']/value")
	url := ""
	done := false
	sock, err := cliNode.OpenUDP(0, func(pkt netapi.Packet) {
		reply, err := p.Parse(pkt.Data)
		if err != nil {
			t.Error(err)
		} else if v, err := urlPath.Get(reply); err != nil {
			t.Error(err)
		} else {
			url = v.Text()
		}
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	if err := sock.Send(addr, wire); err != nil {
		t.Fatal(err)
	}
	_ = sim.RunUntil(func() bool { return done }, 5*time.Second)
	return url, done
}

// TestDispatcherHotReload is the zero-restart provisioning loop: a
// dispatcher hosting the six builtin cases picks up a seventh case
// dropped into a watched model directory, deploys it without touching
// the running six, bridges a session through it, and undeploys it when
// the case is unloaded.
func TestDispatcherHotReload(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(reg, node)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	before := map[string]any{}
	for _, name := range d.Cases() {
		eng, _ := d.Engine(name)
		before[name] = eng
	}

	dir := copyFixtures(t)
	w := NewWatcher(reg, dir, 0, func(registry.LoadResult) {
		if err := d.Sync(); err != nil {
			t.Error(err)
		}
	}, nil)
	if err := w.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := d.Cases(); len(got) != 7 {
		t.Fatalf("cases after reload = %v", got)
	}
	// The running six were not redeployed.
	for name, eng := range before {
		got, ok := d.Engine(name)
		if !ok || any(got) != eng {
			t.Errorf("case %s was redeployed by an unrelated hot load", name)
		}
	}

	// The UPnP printer the new case chains to.
	devNode, err := sim.NewNode("10.0.0.8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.8:5431/print", 5431); err != nil {
		t.Fatal(err)
	}
	cliNode, err := sim.NewNode("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	url, ok := slpUnicastLookup(t, sim, reg, cliNode, netapi.Addr{IP: "10.0.0.5", Port: 1427})
	if !ok || url != "http://10.0.0.8:5431/print" {
		t.Fatalf("hot-deployed case lookup: ok=%v url=%q", ok, url)
	}

	// Unload undeploys the case and unbinds its listener.
	if err := reg.Unload("slp-to-upnp-alt"); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.Cases(); len(got) != 6 {
		t.Fatalf("cases after unload = %v", got)
	}
	if _, ok := d.Engine("slp-to-upnp-alt"); ok {
		t.Error("unloaded case still has a live engine")
	}
	if _, ok := slpUnicastLookup(t, sim, reg, cliNode, netapi.Addr{IP: "10.0.0.5", Port: 1427}); ok {
		t.Error("unbound entry endpoint still answered")
	}
}

// TestWatcherPolling exercises the change-driven polling loop against
// real files and a real ticker.
func TestWatcherPolling(t *testing.T) {
	reg := builtin(t)
	dir := t.TempDir()
	applied := make(chan registry.LoadResult, 16)
	w := NewWatcher(reg, dir, 5*time.Millisecond, func(res registry.LoadResult) {
		if res.Changed() {
			applied <- res
		}
	}, nil)
	w.Start()
	defer w.Stop()

	data, err := os.ReadFile(filepath.Join(fixturesDir, "slp-server-alt.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "slp-server-alt.xml"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-applied:
		if len(res.Automata) != 1 || res.Automata[0] != "slp-server-alt" {
			t.Errorf("applied = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never picked up the new model file")
	}
	if _, err := reg.Automaton("slp-server-alt"); err != nil {
		t.Fatal(err)
	}
}

// TestWatcherRetriesFailedLoad: a broken model file fails the load and
// is loaded again on the next poll, without anything on disk changing;
// once fixed it is applied, and the hook sees the result.
func TestWatcherRetriesFailedLoad(t *testing.T) {
	reg := builtin(t)
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.xml")
	if err := os.WriteFile(broken, []byte(`<MDL protocol="X">not xml`), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged atomic.Int64
	applied := make(chan registry.LoadResult, 1) // takes the synchronous Reload's result
	stop := make(chan struct{})
	w := NewWatcher(reg, dir, 5*time.Millisecond, func(res registry.LoadResult) {
		select {
		case applied <- res:
		case <-stop:
		}
	}, func(string, ...any) { logged.Add(1) })
	if err := w.Reload(); err == nil {
		t.Fatal("broken model file should fail the load")
	}
	<-applied
	w.Start()
	defer w.Stop()
	defer close(stop) // before Stop: a poll blocked in the hook must return
	// The poll retries the same broken file: the hook runs on each failure.
	for i := 0; i < 2; i++ {
		select {
		case res := <-applied:
			if res.Changed() {
				t.Fatalf("a failed load applied %+v", res)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the poll never retried the failed load")
		}
	}
	if logged.Load() == 0 {
		t.Error("a failed poll must be logged")
	}

	// Fixing the file makes the next poll apply it.
	valid, err := os.ReadFile(filepath.Join(fixturesDir, "slp-server-alt.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(broken, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case res := <-applied:
			if !res.Changed() {
				continue // a poll that read the file before the write finished
			}
			if len(res.Automata) != 1 || res.Automata[0] != "broken" {
				t.Fatalf("applied = %+v", res)
			}
			if _, err := reg.Automaton("broken"); err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatal("the fixed file was never applied")
		}
	}
}

// TestWatcherAppliesSameSizeEdit: an edit that keeps the file's size and
// modification time is still applied by the next poll, because the poll
// compares content, not size and mtime.
func TestWatcherAppliesSameSizeEdit(t *testing.T) {
	reg := builtin(t)
	dir := copyFixtures(t)
	path := filepath.Join(dir, "slp-to-upnp-alt.xml")
	applied := make(chan registry.LoadResult, 1) // one change at a time: the fixtures, then the edit
	w := NewWatcher(reg, dir, 5*time.Millisecond, func(res registry.LoadResult) {
		if res.Changed() {
			applied <- res
		}
	}, nil)
	if err := w.Reload(); err != nil {
		t.Fatal(err)
	}
	<-applied
	w.Start()
	defer w.Stop()

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The M-SEARCH's MX goes from 1 to 2: same size, new content.
	edited := strings.Replace(string(data), "<Value>1</Value>", "<Value>2</Value>", 1)
	if edited == string(data) || len(edited) != len(data) {
		t.Fatal("fixture no longer holds the edited value")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-applied:
		if len(res.Cases) != 1 || res.Cases[0] != "slp-to-upnp-alt" {
			t.Errorf("applied = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a same-size edit with its mtime restored was never applied")
	}
}

// TestDispatcherExplicitCases checks the -case list path: only the
// named cases deploy, and unknown names fail Sync.
func TestDispatcherExplicitCases(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(reg, node, WithCases("slp-to-upnp", "upnp-to-slp"))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Cases(); len(got) != 2 || got[0] != "slp-to-upnp" || got[1] != "upnp-to-slp" {
		t.Fatalf("cases = %v", got)
	}

	node2, err := sim.NewNode("10.0.0.6")
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDispatcher(reg, node2, WithCases("no-such-case"))
	if err := d2.Sync(); err == nil || !strings.Contains(err.Error(), "no-such-case") {
		t.Fatalf("unknown explicit case should fail Sync, got %v", err)
	}
	_ = d2.Close()
}

// portAliasNode is the bridge node of TestDispatcherStreamSourceSharesRequesterPort.
// It makes every inbound stream connection report, as its remote port,
// the port of the UDP socket the deployment opened last — its newest
// requester. A real host allows that (UDP and TCP ports are separate
// spaces); simnet's allocator never produces it.
type portAliasNode struct {
	netapi.Node
	mu      sync.Mutex
	udpPort int
	conns   map[netapi.Conn]netapi.Conn
}

func (n *portAliasNode) OpenUDPIn(m netapi.Mode, port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	sock, err := n.Node.OpenUDPIn(m, port, h)
	if err == nil && port == 0 {
		n.mu.Lock()
		n.udpPort = sock.LocalAddr().Port
		n.mu.Unlock()
	}
	return sock, err
}

func (n *portAliasNode) ListenStreamIn(m netapi.Mode, port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	return n.Node.ListenStreamIn(m, port, accept, func(c netapi.Conn, data []byte) {
		n.mu.Lock()
		alias, ok := n.conns[c]
		if !ok {
			alias = aliasConn{Conn: c, remote: netapi.Addr{IP: c.RemoteAddr().IP, Port: n.udpPort}}
			n.conns[c] = alias
		}
		n.mu.Unlock()
		recv(alias, data)
	})
}

type aliasConn struct {
	netapi.Conn
	remote netapi.Addr
}

func (c aliasConn) RemoteAddr() netapi.Addr { return c.remote }

// TestDispatcherStreamSourceSharesRequesterPort: the egress table holds
// the deployment's requester sockets by IP and port, so a description
// GET whose TCP source port equals a live UDP requester's port (here
// the session's own mDNS requester, with the control point on the
// bridge's host as on loopback) used to be dropped as the bridge's own
// multicast echo. It must reach its session, while the real echo — the
// mDNS question heard on the shared listener — is still suppressed.
func TestDispatcherStreamSourceSharesRequesterPort(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	host, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	node := &portAliasNode{Node: host, conns: map[netapi.Conn]netapi.Conn{}}
	// bonjour-to-upnp brings the shared mDNS listener that hears the
	// session's own question.
	d := NewDispatcher(reg, node, WithCases("upnp-to-bonjour", "bonjour-to-upnp"))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	devNode, err := sim.NewNode("10.0.0.7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnssd.NewResponder(devNode, "printer.local", "service:printer://10.0.0.7:515"); err != nil {
		t.Fatal(err)
	}
	var res upnp.DiscoverResult
	done := false
	upnp.NewControlPoint(host).Discover("urn:printer", func(r upnp.DiscoverResult) { res, done = r, true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatalf("the description GET never reached its session: %v (dispatch counters %+v)", err, d.Counts().Dispatch)
	}
	if res.Err != nil || len(res.ServiceURLs) != 1 {
		t.Fatalf("discover = %+v", res)
	}
	node.mu.Lock()
	aliased, port := len(node.conns), node.udpPort
	node.mu.Unlock()
	if aliased == 0 || port == 0 {
		t.Fatalf("no GET arrived from the requester's port (conns %d, port %d)", aliased, port)
	}
	if st := d.Counts().Cases["upnp-to-bonjour"]; st.Completed != 1 || st.Failed != 0 {
		t.Errorf("upnp-to-bonjour stats = %+v", st.Counters)
	}
	if dc := d.Counts().Dispatch; dc.Suppressed == 0 {
		t.Errorf("own multicast echo no longer suppressed: %+v", dc)
	}
}

// TestDeployOwnsNode: Deploy creates the bridge host and the dispatcher
// owns it — a deploy that fails (unknown case, cancelled context)
// releases it, and so does closing a healthy deployment. Under simnet a
// released host's IP can be created again.
func TestDeployOwnsNode(t *testing.T) {
	sim := simnet.New()
	reg := builtin(t)
	hostFree := func(after string) {
		t.Helper()
		node, err := sim.NewNode("10.0.0.5")
		if err != nil {
			t.Fatalf("node leaked by %s: %v", after, err)
		}
		_ = node.Close()
	}
	if _, err := Deploy(context.Background(), reg, sim, "10.0.0.5", []string{"corba-to-soap"}); !errors.Is(err, serrors.ErrUnknownCase) {
		t.Fatalf("err = %v, want ErrUnknownCase", err)
	}
	hostFree("failed deploy")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Deploy(ctx, reg, sim, "10.0.0.5", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	hostFree("cancelled deploy")

	d, err := Deploy(context.Background(), reg, sim, "10.0.0.5", []string{"slp-to-bonjour"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Cases(); len(got) != 1 || got[0] != "slp-to-bonjour" {
		t.Fatalf("cases = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	hostFree("Close")
}

// orderSink records, without serialising its calls — the Sink contract
// allows that — whether any session started before Deployed returned.
type orderSink struct {
	deployed                 atomic.Bool
	deploys, sessions, early atomic.Int64
}

func (k *orderSink) Deployed(string, uint64) {
	time.Sleep(30 * time.Millisecond) // a slow sink widens the window
	k.deploys.Add(1)
	k.deployed.Store(true)
}

func (k *orderSink) SessionStart(string, netapi.Addr, time.Time) {
	k.sessions.Add(1)
	if !k.deployed.Load() {
		k.early.Add(1)
	}
}

func (*orderSink) Undeployed(string)                      {}
func (*orderSink) SessionEnd(string, engine.SessionStats) {}
func (*orderSink) Dropped(string, netapi.Addr, error)     {}
func (*orderSink) Classified(ClassifyEvent)               {}

// TestDeployEventPrecedesSessions: Sync reports a case's Deployed before
// it publishes the case's entry points, so however fast a client fires
// once the port is bound — here it is already firing — and however slow
// a sink that serialises nothing is, no session of the case starts
// before Deployed has returned.
func TestDeployEventPrecedesSessions(t *testing.T) {
	rt := realnet.New()
	cli, err := rt.NewNode("early-bird")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sock, err := cli.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	request := (&slp.SrvRqst{Header: slp.Header{XID: 7, LangTag: "en"}, ServiceType: "service:printer"}).Marshal()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sock.Send(netapi.Addr{IP: slp.Group, Port: slp.Port}, request)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer func() { close(stop); <-stopped }()

	var sink orderSink
	d, err := Deploy(context.Background(), builtin(t), rt, "127.0.0.1", []string{"slp-to-bonjour"},
		WithSink(&sink), WithEngineOptions(engine.WithReceiveTimeout(20*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for deadline := time.Now().Add(10 * time.Second); sink.sessions.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the client never opened a session")
		}
	}
	if deploys, early := sink.deploys.Load(), sink.early.Load(); deploys != 1 || early != 0 {
		t.Fatalf("%d deploy event(s), %d of %d sessions started before Deployed returned; want 1 and 0",
			deploys, early, sink.sessions.Load())
	}
}

// BenchmarkWatcherNoopPoll is one poll of an unchanged model directory:
// a registry.LoadFS whose every file is already loaded byte for byte.
func BenchmarkWatcherNoopPoll(b *testing.B) {
	reg, err := registry.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	w := NewWatcher(reg, fixturesDir, 0, nil, nil)
	if err := w.Reload(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.mu.Lock()
		err := w.loadLocked(false)
		w.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The bridge hears its own M-SEARCH on the shared SSDP listener. The
// SSDP socket it was sent from is lent, and stays in the egress table
// while idle, so the search is suppressed even when the group delivers
// it back after its session has ended: it opens no upnp-to-bonjour
// session.
func TestOwnSearchHeardAfterSessionEndIsSuppressed(t *testing.T) {
	sim := simnet.New()
	node, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(builtin(t), node, WithCases("slp-to-upnp", "upnp-to-bonjour"))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.7:5431/svc", 5431); err != nil {
		t.Fatal(err)
	}
	sim.InstallFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{{
		Name: "late-self", From: "10.0.0.5", To: "10.0.0.5", Proto: "udp", Delay: 2 * time.Second,
	}}})
	cliNode, _ := sim.NewNode("10.0.0.1")
	var urls []string
	slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond)).
		Lookup("service:printer", func(r slp.LookupResult) { urls = r.URLs })
	if err := sim.RunUntil(func() bool { return d.Counts().Cases["slp-to-upnp"].Completed == 1 }, time.Second); err != nil {
		t.Fatal(err)
	}
	sim.Run(3 * time.Second) // past the delayed delivery of the search
	c := d.Counts()
	if got := c.Cases["upnp-to-bonjour"]; got.Ingested != 0 || got.Live+got.Completed+got.Failed != 0 {
		t.Errorf("the bridge's own search, heard after its session ended, reached upnp-to-bonjour: %+v", got.Counters)
	}
	if c.Dispatch.Suppressed != 1 || len(urls) != 1 {
		t.Errorf("suppressed %d, client urls %v: want the one search suppressed and the lookup answered", c.Dispatch.Suppressed, urls)
	}
}
