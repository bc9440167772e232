package engine_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/lanes"
	"starlink/internal/merge"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
	"starlink/internal/simnet"
)

// waitFor polls a wall-clock condition (the realnet tests).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// sessionEnds collects session ends from any goroutine.
type sessionEnds struct {
	mu    sync.Mutex
	stats []engine.SessionStats
}

func (c *sessionEnds) add(s engine.SessionStats) {
	c.mu.Lock()
	c.stats = append(c.stats, s)
	c.mu.Unlock()
}

func (c *sessionEnds) hook() engine.Option { return onSessionEnd(c.add) }

func (c *sessionEnds) errs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, s := range c.stats {
		out = append(out, fmt.Sprint(s.Err))
	}
	return out
}

// A session is data owned by an ingest worker: parking thousands of
// them at a receive creates no goroutine, and each costs a bounded
// number of bytes — user agent and simulator sockets included.
func TestSessionsAreData(t *testing.T) {
	const (
		parked             = 2000
		maxBytesPerSession = 6000 // 5 921 measured on linux/amd64, Go 1.24, the messages' fields in blocks of four (5 777 while each field came from a field pool alone; 6 977 while each of a parked request's 25 fields took 128 B, not 80): 91 of them histograms allocated on first Record (73 the engine's, 18 the dispatcher's), 4 the egress table's one port set
	)
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour", engine.WithMaxSessions(parked)) // no service answers
	measure := func() (heap uint64, goroutines int) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, runtime.NumGoroutine()
	}
	sim.RunToQuiescence()
	heap0, g0 := measure()
	for i := 0; i < parked; i++ {
		cliNode, err := sim.NewNode(fmt.Sprintf("10.1.%d.%d", i/250, i%250+1))
		if err != nil {
			t.Fatal(err)
		}
		ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(20*time.Second))
		ua.Lookup("service:printer", func(slp.LookupResult) {})
	}
	sim.Run(time.Second)
	if st := e.Counts(); st.Live != parked || st.Rejected != 0 {
		t.Fatalf("live = %d rejected = %d, want %d sessions parked at their receive", st.Live, st.Rejected, parked)
	}
	heap1, g1 := measure()
	if g1 != g0 {
		t.Errorf("%d goroutines with %d sessions parked, %d with none: a session must not own one", g1, parked, g0)
	}
	per := (int64(heap1) - int64(heap0)) / parked
	t.Logf("heap per parked session: %d B", per)
	if per > maxBytesPerSession {
		t.Errorf("a parked session holds %d B of heap, want at most %d", per, maxBytesPerSession)
	}
}

// A session's receive timer rides the control lane, which never evicts
// and drains first: with its worker held up and the data ring behind it
// full and shedding, the session still gets its timeout, fails, and
// returns its max-sessions slot.
func TestTimerSurvivesFullDataLane(t *testing.T) {
	rt := realnet.New()
	node, err := rt.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	const ring = 4
	var ends sessionEnds
	var once sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	e := newEngine(t, node, "slp-to-bonjour",
		engine.WithIngestWorkers(1),
		engine.WithMaxSessions(1),
		engine.WithReceiveTimeout(100*time.Millisecond),
		engine.WithLanePolicy(lanes.Policy{Capacity: ring, High: 3 * ring, Low: 1}),
		// The first drop is the max-sessions refusal below, reported on
		// the worker: holding the callback holds the only worker (and, the
		// test sink serialising them, every later report behind it).
		engine.WithSink(&testSink{end: ends.add, drop: func(netapi.Addr, error) {
			once.Do(func() { close(held); <-release })
		}}))
	var releaseOnce sync.Once
	resume := func() { releaseOnce.Do(func() { close(release) }) }
	defer resume() // a failed wait must not leave the worker held for Close
	e.Start()
	control, _ := protoPair(t, e)
	request := (&slp.SrvRqst{Header: slp.Header{XID: 7, LangTag: "en"}, ServiceType: "service:printer"}).Marshal()
	if err := e.Inject(control, request, src(1), netapi.NewBuffer()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the session to park at its receive", func() bool { return e.Counts().Live == 1 })
	if err := e.Inject(control, request, src(2), netapi.NewBuffer()); err != nil { // refused: the hook holds the worker
		t.Fatal(err)
	}
	<-held
	// Payloads under a live session's key classify as data: one more
	// than the ring holds, so the oldest is shed (its reporter then
	// waits behind the held hook, hence the goroutine).
	go func() {
		for i := 0; i <= ring; i++ {
			_ = e.Inject(control, []byte("garbage"), src(1), netapi.NewBuffer())
		}
	}()
	waitFor(t, "the data ring to fill and shed", func() bool {
		data := e.Snapshot().Lanes.Counters[lanes.Data]
		return data.Depth == ring && data.Shed > 0
	})
	waitFor(t, "the fired timer to queue on the control lane", func() bool {
		return e.Snapshot().Lanes.Counters[lanes.Control].Depth == 1
	})
	if st := e.Counts(); st.Live != 1 || st.Failed != 0 {
		t.Fatalf("before the worker resumes: %+v, want the session still live", st.Counters)
	}
	resume()
	waitFor(t, "the session to time out", func() bool { return e.Counts().Failed == 1 })
	if errs := ends.errs(); len(errs) != 1 || !strings.Contains(errs[0], "timeout waiting for") {
		t.Fatalf("session ends = %v, want one receive timeout", errs)
	}
	waitFor(t, "the backlog to drain", func() bool { return e.Counts().LaneDepth == 0 })
	if p := e.Counts(); p.Live != 0 || p.SemInUse != 0 {
		t.Errorf("after the timeout: live=%d sem=%d, want no session and no max-sessions slot held", p.Live, p.SemInUse)
	}
}

// Opening a stream requester dials inline on the session's worker. A
// refused dial fails that session at once — not at its receive timeout —
// and the worker goes on to its next job.
func TestRefusedDialFailsSessionOnly(t *testing.T) {
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closedPort := l.Addr().(*net.TCPAddr).Port
	_ = l.Close()

	rt := realnet.New()
	node, err := rt.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	var ends sessionEnds
	e := hosted(t, node, "slp-to-upnp", ends.hook(), engine.WithIngestWorkers(1)) // 30 s receive timeout
	devNode, _ := rt.NewNode("10.0.0.7")
	dev, err := ssdp.NewDevice(devNode, "urn:printer", fmt.Sprintf("http://127.0.0.1:%d/desc.xml", closedPort), "uuid:closed")
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	cliNode, _ := rt.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(50*time.Millisecond))
	for round := 1; round <= 2; round++ { // the second lookup is the worker's next job
		ua.Lookup("service:printer", func(slp.LookupResult) {})
		waitFor(t, fmt.Sprintf("lookup %d to fail at the dial", round), func() bool { return e.Counts().Failed == round })
	}
	for _, msg := range ends.errs() {
		if !strings.Contains(msg, "dial") {
			t.Errorf("session error %q, want the refused dial", msg)
		}
	}
	if st := e.Counts(); st.Live != 0 || st.Completed != 0 {
		t.Errorf("stats = %+v, want both sessions failed and gone", st)
	}
}

// probeNode is a bridge node whose multicast listener sockets run
// onSend just before transmitting — the instant a reply to the origin
// leaves, seen from inside the session's send step.
type probeNode struct {
	netapi.Node
	onSend func()
}

func (n *probeNode) JoinGroupIn(m netapi.Mode, group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	sock, err := n.Node.JoinGroupIn(m, group, h)
	if err != nil {
		return nil, err
	}
	return probeSocket{UDPSocket: sock, onSend: n.onSend}, nil
}

type probeSocket struct {
	netapi.UDPSocket
	onSend func()
}

func (s probeSocket) Send(to netapi.Addr, data []byte) error {
	s.onSend()
	return s.UDPSocket.Send(to, data)
}

// A bridge node wrapped in a struct that only embeds it is the same
// node: the deployment still opens detached and gated and the engine
// still tracks its hand-offs through it, so a run on the wrapper is the
// run on the bare node, delivery for delivery. (Capabilities used to be
// optional interfaces found by type assertion; a wrapper hid them all
// and the engine fell back to no work tracking, no detachment and no
// gate.)
func TestWrappedNodeKeepsCapabilities(t *testing.T) {
	type wrapper struct{ netapi.Node }
	const clients = 4
	run := func(wrap func(netapi.Node) netapi.Node) (trace uint64) {
		// No jitter: the four sessions' requester sockets hear their
		// answers on one instant, ordered by their private domains.
		sim := simnet.New(simnet.WithSeed(5), simnet.WithLatency(time.Millisecond, 0), simnet.WithEventTrace())
		host, err := sim.NewNode("10.0.0.5")
		if err != nil {
			t.Fatal(err)
		}
		e := hosted(t, wrap(host), "slp-to-bonjour", engine.WithIngestWorkers(1))
		gate := e.FlowGate() // the dispatcher's, shared with its listeners
		svcNode, _ := sim.NewNode("10.0.0.9")
		if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
			t.Fatal(err)
		}
		gate.Pause()
		var urls []*[]string
		for i := 1; i <= clients; i++ {
			urls = append(urls, lookup(t, sim, fmt.Sprintf("10.0.0.%d", i)))
		}
		sim.Run(10 * time.Millisecond)
		if sim.PacketsDeferred != clients || e.Counts().Ingested != 0 {
			t.Fatalf("gate blocked: %d requests parked, %d ingested; want %d and 0 (the entry listener is not gated)",
				sim.PacketsDeferred, e.Counts().Ingested, clients)
		}
		gate.Resume()
		// Untracked, the clock runs past the workers and the lookups
		// converge empty before any session has sent its question.
		if err := sim.RunUntil(func() bool { return e.Counts().Completed == clients }, 5*time.Second); err != nil {
			t.Fatalf("%v (%+v)", err, e.Counts().Counters)
		}
		sim.RunToQuiescence()
		for i, u := range urls {
			if len(*u) != 1 {
				t.Errorf("client %d got %v, want the printer's URL", i+1, *u)
			}
		}
		return sim.TraceHash()
	}
	bare := run(func(n netapi.Node) netapi.Node { return n })
	wrapped := run(func(n netapi.Node) netapi.Node { return wrapper{n} })
	if wrapped != bare {
		t.Errorf("trace on the wrapped node %016x, on the bare node %016x: the wrapper changed how endpoints dispatch", wrapped, bare)
	}
}

// The send that provokes the peer's next entry message must not leave
// before the session is findable under the receive it is heading for:
// in upnp-to-bonjour the control point's description GET answers the
// SSDP response, and with two Ps it used to reach the dispatcher before
// the session had armed its HTTP receive — dropped as unroutable.
func TestAwaitPublishedBeforeProvokingSend(t *testing.T) {
	sim := simnet.New()
	host, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	var e *engine.Engine
	var get merge.Step // the mid-program entry receive
	var findable []bool
	node := &probeNode{Node: host, onSend: func() {
		findable = append(findable, e.AwaitsEntry(get.Protocol, get.Message, "10.0.0.1"))
	}}
	e = hosted(t, node, "upnp-to-bonjour")
	for _, step := range e.Program()[1:] {
		if step.Kind == merge.StepRecv && step.Protocol != "mDNS" {
			get = step
		}
	}
	if get.Protocol != "HTTP" {
		t.Fatalf("mid-program entry receive = %+v, want the HTTP GET", get)
	}
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	done := false
	upnp.NewControlPoint(cliNode).Discover("urn:printer", func(upnp.DiscoverResult) { done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if e.Counts().Completed != 1 {
		t.Fatalf("completed = %d failed = %d", e.Counts().Completed, e.Counts().Failed)
	}
	if len(findable) != 1 || !findable[0] {
		t.Fatalf("session findable under %s/%s as its SSDP response left: %v, want [true]", get.Protocol, get.Message, findable)
	}
}

// Routing is by (color, client socket): a second request from a socket
// whose session is still live, and is past the request, is an
// interaction of its own under a key of its own.
func TestRoutingOneSocketTwoSessions(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour") // no service answers: both sessions park
	cliNode, _ := sim.NewNode("10.1.0.1")
	sock, err := cliNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for xid := 1; xid <= 2; xid++ {
		req := &slp.SrvRqst{Header: slp.Header{XID: xid, LangTag: "en"}, ServiceType: "service:printer"}
		if err := sock.Send(netapi.Addr{IP: "239.255.255.253", Port: 427}, req.Marshal()); err != nil {
			t.Fatal(err)
		}
		sim.Run(100 * time.Millisecond)
	}
	live := e.LiveSessions()
	if len(live) != 2 || live[0].Key == live[1].Key || !strings.HasPrefix(live[1].Key, live[0].Key+"#") {
		t.Fatalf("live sessions %+v, want two, the second keyed apart from the first", live)
	}
	if live[0].Origin != sock.LocalAddr() || live[1].Origin != sock.LocalAddr() {
		t.Errorf("origins %v and %v, want both %v", live[0].Origin, live[1].Origin, sock.LocalAddr())
	}
}
