package engine_test

import (
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/models"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"
	"starlink/internal/simnet"
)

// handService is a Bonjour service played by the test: it records every
// question the bridge multicasts and answers only when told to, with the
// transaction id it is told to use.
type handService struct {
	t     *testing.T
	sock  netapi.UDPSocket
	asked []asked
}

type asked struct {
	from netapi.Addr
	id   int
}

func newHandService(t *testing.T, sim *simnet.Net) *handService {
	t.Helper()
	node, err := sim.NewNode("10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	h := &handService{t: t}
	h.sock, err = node.JoinGroup(netapi.Addr{IP: dnssd.Group, Port: dnssd.Port}, func(pkt netapi.Packet) {
		if msg, err := dnssd.Parse(pkt.Data); err == nil && msg.IsQuery() {
			h.asked = append(h.asked, asked{from: pkt.From, id: msg.ID})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *handService) answer(to netapi.Addr, id int) {
	h.t.Helper()
	data, err := (&dnssd.Message{ID: id, Flags: dnssd.FlagResp, Answers: []dnssd.Answer{{
		Name: "printer.local", AType: dnssd.TypeTXT, TTL: 120, RDATA: "service:printer://10.0.0.9:515",
	}}}).Marshal()
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.sock.Send(to, data); err != nil {
		h.t.Fatal(err)
	}
}

// lookup starts an SLP lookup from a client host of its own and returns
// where its URLs will land.
func lookup(t *testing.T, sim *simnet.Net, ip string) *[]string {
	t.Helper()
	node, err := sim.NewNode(ip)
	if err != nil {
		t.Fatal(err)
	}
	urls := new([]string)
	slp.NewUserAgent(node, slp.WithConvergenceWait(time.Second)).Lookup("service:printer",
		func(r slp.LookupResult) { *urls = append(*urls, r.URLs...) })
	return urls
}

// Two sessions in a row borrow one requester socket. What keeps the
// first one's reply from the second is the epoch the engine stamps into
// the color's txid field: a reply carrying the earlier id — a late
// duplicate, or a forgery — is counted Stale and never delivered, and so
// is anything that reaches the socket while nobody holds it.
func TestStaleReplyNeverDelivered(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour", engine.WithIngestWorkers(1))
	svc := newHandService(t, sim)
	until := func(what string, cond func() bool) {
		t.Helper()
		if err := sim.RunUntil(cond, time.Second); err != nil {
			t.Fatalf("%s: %v (%+v)", what, err, e.Counts().Counters)
		}
	}

	lookup(t, sim, "10.0.0.1")
	until("session A's question", func() bool { return len(svc.asked) == 1 })
	a := svc.asked[0]
	if a.id == 0 {
		t.Fatal("question A carries transaction id 0: a peer that echoes nothing would match it")
	}
	svc.answer(a.from, a.id)
	until("session A to complete", func() bool { return e.Counts().Completed == 1 })

	svc.answer(a.from, a.id) // a late duplicate, to the socket nobody holds
	until("the idle socket to count it", func() bool { return e.Counts().Stale == 1 })
	if c := e.Counts(); c.RequestersIdle != 1 || c.Ignored != 0 {
		t.Fatalf("between sessions: %+v, want one idle requester and nothing ignored", c.Counters)
	}

	urlsB := lookup(t, sim, "10.0.0.2")
	until("session B's question", func() bool { return len(svc.asked) == 2 })
	b := svc.asked[1]
	if b.from != a.from {
		t.Fatalf("session B asked from %s, session A from %s: the socket was not lent", b.from, a.from)
	}
	if b.id == a.id || b.id == 0 {
		t.Fatalf("session B's transaction id %d (A's was %d): want a fresh, non-zero epoch", b.id, a.id)
	}
	svc.answer(b.from, a.id) // A's id, to the socket B now holds
	until("the forged reply to be counted", func() bool { return e.Counts().Stale == 2 })
	sim.Run(10 * time.Millisecond)
	if c := e.Counts(); c.Live != 1 || c.Completed != 1 || c.Ignored != 0 || len(*urlsB) != 0 {
		t.Fatalf("after a reply with A's id: %+v urls %v, want B still waiting, nothing delivered, nothing ignored", c.Counters, *urlsB)
	}
	svc.answer(b.from, b.id)
	until("session B to complete on its own id", func() bool { return e.Counts().Completed == 2 })
	until("client B's answer", func() bool { return len(*urlsB) == 1 })
	if c := e.Counts(); c.Stale != 2 || c.Failed != 0 || c.RequesterLends != 2 || c.RequesterOpens != 1 {
		t.Fatalf("final counters %+v, want 2 stale, 2 lends of 1 socket", c.Counters)
	}
}

// streamTap keeps the handler and connection of the last stream dialed
// through it.
type streamTap struct {
	netapi.Node
	recv *netapi.StreamHandler
	conn *netapi.Conn
}

func (n streamTap) DialStreamIn(m netapi.Mode, to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	c, err := n.Node.DialStreamIn(m, to, recv)
	*n.recv, *n.conn = recv, c
	return c, err
}

// A stream frame that reaches a requester after its session let it go
// is counted Stale, and the lease the frame was copied into goes back to
// the pool.
func TestStaleStreamFrameReleasesLease(t *testing.T) {
	sim := simnet.New()
	host, _ := sim.NewNode("10.0.0.5")
	var recv netapi.StreamHandler
	var conn netapi.Conn
	e := hosted(t, streamTap{Node: host, recv: &recv, conn: &conn}, "slp-to-upnp", engine.WithIngestWorkers(1))
	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.7:5431/svc", 5431); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	done := false
	slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond)).Lookup("service:printer", func(slp.LookupResult) { done = true })
	if err := sim.RunUntil(func() bool { return done && e.Counts().Completed == 1 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if recv == nil {
		t.Fatal("the description GET was not dialed through the host node")
	}
	leases0 := netapi.LeasedBuffers()
	recv(conn, httpx.MarshalResponse(200, "OK", "text/xml", upnp.DescriptionXML("Printer", "urn:printer", "http://10.0.0.7:5431/svc")))
	sim.Run(10 * time.Millisecond)
	if c := e.Counts(); c.Stale != 1 || c.ParseErrors != 0 || c.Ignored != 0 {
		t.Errorf("after a frame for a finished session: %+v, want it counted stale and nothing else", c.Counters)
	}
	if got := netapi.LeasedBuffers(); got != leases0 {
		t.Errorf("%d buffer lease(s) outstanding after the stale frame, want its lease released", got-leases0)
	}
}

// A session struct is reused by the next session its worker admits, so
// an event queued for the earlier one can reach the later one. It
// carries the life it was posted for and is released unhandled: not
// parsed, not counted, its buffer back in the pool.
func TestRecycledSessionDropsStaleJob(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour", engine.WithIngestWorkers(1))
	svc := newHandService(t, sim)
	lookup(t, sim, "10.0.0.1")
	if err := sim.RunUntil(func() bool { return len(svc.asked) == 1 }, time.Second); err != nil {
		t.Fatal(err)
	}
	svc.answer(svc.asked[0].from, svc.asked[0].id)
	if err := sim.RunUntil(func() bool { return e.Counts().Completed == 1 }, time.Second); err != nil {
		t.Fatal(err)
	}
	lookup(t, sim, "10.0.0.2") // session B: the same struct, one life on
	if err := sim.RunUntil(func() bool { return len(svc.asked) == 2 }, time.Second); err != nil {
		t.Fatal(err)
	}
	leases0 := netapi.LeasedBuffers()
	buf := netapi.NewBuffer()
	buf.SetFilled(copy(buf.Backing(), "not even DNS: handling it would count a parse error"))
	if !e.PostForPreviousLife(buf.Bytes(), buf) {
		t.Fatal("session B does not reuse session A's struct: the free list is not used")
	}
	sim.Run(10 * time.Millisecond)
	if got := netapi.LeasedBuffers(); got != leases0 {
		t.Errorf("%d buffer lease(s) outstanding after the stale job, want its lease released", got-leases0)
	}
	if c := e.Counts(); c.ParseErrors != 0 || c.Stale != 0 || c.Ignored != 0 || c.Live != 1 || c.LaneDepth != 0 {
		t.Errorf("after a job of the previous life: %+v depth %d, want it released unhandled and B untouched", c.Counters, c.LaneDepth)
	}
}

// countingNode counts the UDP sockets opened through it in any mode
// (the engine opens its requesters on a detached view).
type countingNode struct {
	netapi.Node
	udp *atomic.Int64
}

func (n countingNode) OpenUDPIn(m netapi.Mode, port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	n.udp.Add(1)
	return n.Node.OpenUDPIn(m, port, h)
}

func mustParseSLP(t *testing.T, data []byte) interface{} {
	t.Helper()
	msg, err := slp.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// Requester sockets of a color that declares a txid are lent, not
// opened: sequential sessions reuse one per worker, a burst leaves at
// most the idle cap behind, Close releases them all.
func TestRequestersAreLent(t *testing.T) {
	const (
		sequential = 1000
		workers    = 2
		idleCap    = 4 // engine's maxIdleRequesters
	)
	before := runtime.NumGoroutine()
	defer waitFor(t, "the test's own goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	rt := realnet.New()
	svcNode, _ := rt.NewNode("10.0.0.9")
	resp, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()
	// A raw SLP client: one request, one reply, no convergence window.
	cliNode, _ := rt.NewNode("10.0.0.1")
	replies := make(chan []byte, 1)
	cli, err := cliNode.OpenUDP(0, func(pkt netapi.Packet) { replies <- append([]byte(nil), pkt.Data...) })
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	request := (&slp.SrvRqst{Header: slp.Header{XID: 7, LangTag: "en"}, ServiceType: "service:printer"}).Marshal()

	runtime.GC()
	goroutines0, fds0, leases0 := runtime.NumGoroutine(), openFDs(t), netapi.LeasedBuffers()
	host, _ := rt.NewNode("10.0.0.5")
	var opened atomic.Int64
	e := hosted(t, countingNode{Node: host, udp: &opened}, "slp-to-bonjour", engine.WithIngestWorkers(workers))
	listeners := opened.Load() // 0: the entry listener joins a group

	for i := 1; i <= sequential; i++ {
		if err := cli.Send(netapi.Addr{IP: slp.Group, Port: slp.Port}, request); err != nil {
			t.Fatal(err)
		}
		select {
		case data := <-replies:
			if rply, ok := mustParseSLP(t, data).(*slp.SrvRply); !ok || len(rply.URLs) != 1 {
				t.Fatalf("lookup %d: reply %+v", i, rply)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("lookup %d: no reply (%+v)", i, e.Counts().Counters)
		}
		waitFor(t, "the session to finish", func() bool { return e.Counts().Completed == i })
	}
	c := e.Counts()
	if n := opened.Load() - listeners; n < 1 || n > workers || int(n) != c.RequesterOpens {
		t.Errorf("%d sequential sessions opened %d requester sockets (counter %d), want one per worker that saw traffic (≤ %d)",
			sequential, n, c.RequesterOpens, workers)
	}
	if c.RequesterLends != sequential || c.RequestersIdle != c.RequesterOpens || c.Failed != 0 {
		t.Errorf("after the sequential run: %+v, want %d lends and every opened socket idle", c.Counters, sequential)
	}

	// A burst from distinct client sockets: more sessions at once on a
	// worker than it may keep sockets idle.
	const burst = workers * (idleCap + 8)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		node, _ := rt.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		slp.NewUserAgent(node, slp.WithConvergenceWait(50*time.Millisecond)).Lookup("service:printer",
			func(slp.LookupResult) { wg.Done() })
	}
	wg.Wait()
	waitFor(t, "the burst's sessions to finish", func() bool { c := e.Counts(); return c.Live == 0 && c.Completed == sequential+burst })
	if c := e.Counts(); c.RequestersIdle > workers*idleCap || c.RequestersIdle < 1 {
		t.Errorf("%d requesters idle after a burst of %d, want between 1 and %d (%d per worker)", c.RequestersIdle, burst, workers*idleCap, idleCap)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_ = host.Close() // and with it the dispatcher's entry listener
	waitFor(t, "goroutines, descriptors and leases to return to baseline", func() bool {
		return runtime.NumGoroutine() <= goroutines0 && openFDs(t) <= fds0 && netapi.LeasedBuffers() == leases0
	})
}

// A color with no txid opens one socket per session: here a test-local
// ssdp-client that does not declare the ST its replies echo.
func TestUnlentColorOpensPerSession(t *testing.T) {
	const sessions = 5
	reg := builtin(t)
	doc, err := fs.ReadFile(models.FS, "ssdp-client.xml")
	if err != nil {
		t.Fatal(err)
	}
	unlent := strings.Replace(string(doc), `<Attr key="txid" value="ST"/>`, "", 1)
	if unlent == string(doc) {
		t.Fatal("ssdp-client.xml no longer declares txid ST: this test removes that line")
	}
	if _, err := reg.ReplaceAutomaton("ssdp-client", unlent); err != nil {
		t.Fatal(err)
	}
	goroutines0 := runtime.NumGoroutine()
	rt := realnet.New()
	devNode, _ := rt.NewNode("10.0.0.7")
	host, _ := rt.NewNode("10.0.0.5")
	cliNode, _ := rt.NewNode("10.0.0.1")
	defer waitFor(t, "the test's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines0 })
	for _, n := range []netapi.Node{devNode, host, cliNode} {
		defer n.Close()
	}
	// The description GET is refused: SSDP is what this test counts.
	if _, err := ssdp.NewDevice(devNode, "urn:printer", "http://127.0.0.1:1/desc.xml", "uuid:unlent"); err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	e := hostedFrom(t, reg, countingNode{Node: host, udp: &opened}, "slp-to-upnp", engine.WithIngestWorkers(1))
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(20*time.Millisecond))
	for i := 1; i <= sessions; i++ {
		ua.Lookup("service:printer", func(slp.LookupResult) {})
		waitFor(t, "the session to end at the refused dial", func() bool { return e.Counts().Failed == i })
	}
	if c := e.Counts(); opened.Load() != sessions || c.RequesterLends != 0 || c.RequesterOpens != 0 {
		t.Errorf("%d sessions opened %d SSDP sockets, counters %+v: want one socket per session and nothing lent", sessions, opened.Load(), c.Counters)
	}
	_ = e.Close()
}

// The shipped ssdp-client declares txid ST, a String the engine does not
// stamp: sequential sessions borrow one SSDP socket, and a response
// whose ST is not the one the holder searched for — an answer to some
// other question, such as a previous holder's — is counted Stale and
// never delivered, while the device's own answer completes the session.
func TestSSDPRequesterLentByST(t *testing.T) {
	const sessions = 5
	sim := simnet.New()
	host, _ := sim.NewNode("10.0.0.5")
	var opened atomic.Int64
	e := hostedFrom(t, builtin(t), countingNode{Node: host, udp: &opened}, "slp-to-upnp", engine.WithIngestWorkers(1))
	devNode, _ := sim.NewNode("10.0.0.7")
	if _, err := upnp.NewDevice(devNode, "urn:printer", "http://10.0.0.7:5431/svc", 5431,
		upnp.WithSSDPDelay(20*time.Millisecond, 20*time.Millisecond, nil)); err != nil {
		t.Fatal(err)
	}
	// Another device answers every search at once, for a type of its
	// own, with a location nobody serves: taking it fails the session.
	rogueNode, _ := sim.NewNode("10.0.0.8")
	var searches []netapi.Addr
	var rogue netapi.UDPSocket
	rogue, err := rogueNode.JoinGroup(netapi.Addr{IP: ssdp.Group, Port: ssdp.Port}, func(pkt netapi.Packet) {
		if msg, err := ssdp.Parse(pkt.Data); err == nil && msg.IsSearch() {
			searches = append(searches, pkt.From)
			_ = rogue.Send(pkt.From, ssdp.NewResponse("urn:scanner", "http://10.0.0.8:5431/desc.xml", "uuid:rogue").Marshal())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond))
	for i := 1; i <= sessions; i++ {
		var urls []string
		done := false
		ua.Lookup("service:printer", func(r slp.LookupResult) { urls, done = r.URLs, true })
		if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
			t.Fatalf("lookup %d: %v (%+v)", i, err, e.Counts().Counters)
		}
		if len(urls) != 1 || urls[0] != "http://10.0.0.7:5431/svc" {
			t.Fatalf("lookup %d: urls %v, want the printer's alone", i, urls)
		}
	}
	if len(searches) != sessions || searches[0] != searches[sessions-1] {
		t.Errorf("searches came from %v, want %d from one socket", searches, sessions)
	}
	if c := e.Counts(); opened.Load() != 1 || c.RequesterOpens != 1 || c.RequesterLends != sessions ||
		c.Stale != sessions || c.Completed != sessions || c.Failed != 0 || c.Ignored != 0 {
		t.Errorf("%d sessions opened %d SSDP sockets, counters %+v: want one socket lent %d times and every scanner answer stale",
			sessions, opened.Load(), c.Counters, sessions)
	}
}
