// Package simnet is a deterministic discrete-event network simulator
// implementing netapi. It provides a virtual clock, configurable
// latency with seeded jitter, packet loss injection, UDP with multicast
// groups, and reliable ordered streams.
//
// Why a simulator: the paper's evaluation (§VI) ran client and service
// on one machine to exclude variable network latency, and its dominant
// timing effects are protocol waits (the 6 s SLP multicast convergence
// window). Virtual time reproduces those waits exactly and makes the
// 100-iteration Fig. 12 runs take milliseconds of wall-clock time while
// remaining fully deterministic for a given seed (see DESIGN.md §5).
//
// Execution model: one event loop, many callers. Run/RunUntil pop
// events from a time-ordered heap on the calling goroutine, and
// protocol logic runs inside those event callbacks; but every node
// operation (Send, After, Cancel, OpenUDP, DialStream, ...) is safe to
// call from any goroutine, so components like the concurrent Automata
// Engine may hand payloads to worker goroutines that later transmit.
//
// Per-endpoint ordering (netapi's concurrency contract) is modelled
// deterministically: every event carries the dispatch-domain key of
// the endpoint it delivers to, and events that fall on the same
// virtual instant are ordered by a seeded per-domain tiebreak instead
// of global creation order. Within one domain FIFO order is always
// preserved; across domains the interleaving is a deterministic
// function of the seed — the simulator models "distinct endpoints
// dispatch in parallel" while a given seed still yields a single
// execution. Endpoints opened through a detached node view
// (netapi.Detach) get private domain keys; by default all endpoints
// and timers of a node share the node's root domain, exactly like
// realnet.
//
// Determinism is preserved through netapi.Node's work-tracking contract:
// nodes implement WorkAdd/WorkDone, and the event loop refuses to pop
// the next event — or conclude anything about pending events — while
// handed-off work is still in flight. Virtual time therefore never
// advances past the instant at which in-flight work will schedule its
// follow-up events, and a given seed still yields a single execution.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"starlink/internal/netapi"
)

// Option configures the simulator.
type Option func(*Net)

// WithSeed sets the RNG seed for latency jitter, loss decisions and
// the cross-domain event interleaving. The fault plane (see
// InstallFaults) derives its own dedicated RNG from the same seed, so
// fault decisions are just as reproducible without ever perturbing
// the jitter sequence.
func WithSeed(seed int64) Option {
	return func(n *Net) {
		n.rng = rand.New(rand.NewSource(seed))
		n.seed = seed
	}
}

// WithLatency sets the base one-way latency and the maximum additional
// uniform jitter applied per packet.
func WithLatency(base, jitter time.Duration) Option {
	return func(n *Net) { n.latBase, n.latJitter = base, jitter }
}

type event struct {
	at time.Time
	// tie is the seeded per-domain tiebreak: events for the same
	// dispatch domain share a tie value (so same-domain events at one
	// instant keep FIFO order via seq), while events for distinct
	// domains at the same instant interleave in seeded order —
	// modelling parallel per-endpoint dispatch deterministically.
	tie uint64
	seq uint64
	fn  func()
	// index is the event's position in the heap; -1 off it.
	index int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].tie != h[j].tie {
		return h[i].tie < h[j].tie
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x interface{}) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1], e.index = nil, -1
	*h = old[:n-1]
	return e
}

type sockKey struct {
	ip   string
	port int
}

// Net is the simulated network.
//
// Locking: mu guards all simulator state (clock, event heap, sockets,
// groups, listeners, timers, RNG, counters). Event callbacks run with
// mu released, so they may freely call back into any node operation.
// workMu/workCond implement the WorkAdd/WorkDone handshake.
type Net struct {
	mu        sync.Mutex
	now       time.Time
	events    eventHeap
	seq       uint64
	seed      int64
	domainSeq uint64
	rng       *rand.Rand
	latBase   time.Duration
	latJitter time.Duration

	nodes     map[string]*node
	udpSocks  map[sockKey]*udpSocket
	groups    map[sockKey]map[sockKey]*udpSocket // group addr -> members
	listeners map[sockKey]*listener
	timerSeq  uint64

	// deferred parks deliveries whose destination endpoint sits behind
	// a blocked flow gate, in arrival order per gate — the simulated
	// analogue of bytes waiting in a paused read loop's kernel buffer.
	// gateSubs records which gates already have a reopen subscription.
	deferred map[*netapi.FlowGate][]deferredDelivery
	gateSubs map[*netapi.FlowGate]bool

	// faults is the installed fault plan (nil: no faults); trace is
	// the delivery-event trace (nil: disabled). See fault.go.
	faults *faultState
	trace  *eventTrace

	workMu   sync.Mutex
	workCond *sync.Cond
	inflight int

	// Stats counters for tests and diagnostics; read them only while
	// the simulation is not being driven.
	PacketsSent    int
	PacketsDropped int
	// PacketsDeferred counts deliveries parked at least once behind a
	// blocked flow gate (they still deliver after the gate reopens).
	PacketsDeferred int
}

// deferredDelivery is one parked delivery: the dispatch domain it
// belongs to and the continuation that retries it.
type deferredDelivery struct {
	dom uint64
	fn  func()
}

var _ netapi.Runtime = (*Net)(nil)

// New creates a simulator. Defaults: seed 1, latency 200µs ± 300µs
// jitter, no loss, epoch 2011-01-01 (the paper's year).
func New(opts ...Option) *Net {
	n := &Net{
		now:       time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		rng:       rand.New(rand.NewSource(1)),
		seed:      1,
		latBase:   200 * time.Microsecond,
		latJitter: 300 * time.Microsecond,
		nodes:     map[string]*node{},
		udpSocks:  map[sockKey]*udpSocket{},
		groups:    map[sockKey]map[sockKey]*udpSocket{},
		listeners: map[sockKey]*listener{},
		deferred:  map[*netapi.FlowGate][]deferredDelivery{},
		gateSubs:  map[*netapi.FlowGate]bool{},
	}
	n.workCond = sync.NewCond(&n.workMu)
	for _, o := range opts {
		o(n)
	}
	return n
}

// Now returns the current virtual time.
func (n *Net) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// newDomainLocked allocates a fresh dispatch-domain key. Caller holds
// n.mu. Allocation order is deterministic for a given seed because the
// WorkAdd/WorkDone contract serialises the goroutines that create
// endpoints against the event loop.
func (n *Net) newDomainLocked() uint64 {
	n.domainSeq++
	return n.domainSeq
}

// tieFor derives the seeded per-domain tiebreak from a domain key
// (splitmix64 of seed ^ key): stable for a given seed, with no draw
// from the shared jitter RNG, so adding domains never perturbs
// latency sampling.
func (n *Net) tieFor(key uint64) uint64 {
	z := uint64(n.seed) ^ (key * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// scheduleDomLocked enqueues fn at now+d on a dispatch domain. Caller
// holds n.mu.
func (n *Net) scheduleDomLocked(d time.Duration, dom uint64, fn func()) {
	n.pushLocked(&event{fn: fn}, d, dom)
}

// pushLocked puts e, which is off the heap, on it at now+d on a dispatch
// domain. Caller holds n.mu.
func (n *Net) pushLocked(e *event, d time.Duration, dom uint64) {
	if d < 0 {
		d = 0
	}
	n.seq++
	e.at, e.tie, e.seq = n.now.Add(d), n.tieFor(dom), n.seq
	heap.Push(&n.events, e)
}

// deferLocked parks a delivery behind a blocked gate, installing a
// reopen subscription on first use. Caller holds n.mu. Parked
// continuations keep FIFO order per gate; each re-checks the gate when
// it finally runs, so a gate that re-blocks re-parks them.
func (n *Net) deferLocked(g *netapi.FlowGate, dom uint64, fn func()) {
	n.PacketsDeferred++
	n.deferred[g] = append(n.deferred[g], deferredDelivery{dom: dom, fn: fn})
	if !n.gateSubs[g] {
		n.gateSubs[g] = true
		g.Notify(func() { n.flushGate(g) })
	}
}

// flushGate reschedules every delivery parked behind g at the current
// virtual instant, preserving arrival order. It runs from the gate's
// reopen notification — in practice from the ingest worker that drained
// the queue below its low watermark, whose WorkAdd hold keeps
// virtual time parked, so the flush lands deterministically.
func (n *Net) flushGate(g *netapi.FlowGate) {
	n.mu.Lock()
	pend := n.deferred[g]
	delete(n.deferred, g)
	for _, d := range pend {
		n.scheduleDomLocked(0, d.dom, d.fn)
	}
	n.mu.Unlock()
}

// latencyLocked draws a per-packet one-way delay. Caller holds n.mu.
func (n *Net) latencyLocked() time.Duration {
	d := n.latBase
	if n.latJitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.latJitter)))
	}
	return d
}

// WorkAdd registers one unit of in-flight off-dispatcher work.
func (n *Net) WorkAdd() {
	n.workMu.Lock()
	n.inflight++
	n.workMu.Unlock()
}

// WorkDone retires one unit of in-flight work.
func (n *Net) WorkDone() {
	n.workMu.Lock()
	n.inflight--
	if n.inflight < 0 {
		n.workMu.Unlock()
		panic("simnet: WorkDone without matching WorkAdd")
	}
	if n.inflight == 0 {
		n.workCond.Broadcast()
	}
	n.workMu.Unlock()
}

// waitIdle blocks until no handed-off work is in flight. Acquiring
// workMu here also publishes every write the finished workers made.
func (n *Net) waitIdle() {
	n.workMu.Lock()
	for n.inflight > 0 {
		n.workCond.Wait()
	}
	n.workMu.Unlock()
}

// popLocked removes the next event and returns its callback, or nil
// when none is pending. Caller holds n.mu; the clock is advanced to the
// event's timestamp.
func (n *Net) popLocked() func() {
	if len(n.events) == 0 {
		return nil
	}
	e := heap.Pop(&n.events).(*event)
	n.now = e.at
	return e.fn
}

// step executes the next event; reports false when none remain.
func (n *Net) step() bool {
	n.mu.Lock()
	fn := n.popLocked()
	n.mu.Unlock()
	if fn == nil {
		return false
	}
	fn()
	return true
}

// peekLocked returns the next event's timestamp.
func (n *Net) peekLocked() (time.Time, bool) {
	if len(n.events) == 0 {
		return time.Time{}, false
	}
	return n.events[0].at, true
}

// Run drives the simulation for d of virtual time.
func (n *Net) Run(d time.Duration) {
	n.mu.Lock()
	deadline := n.now.Add(d)
	n.mu.Unlock()
	for {
		n.waitIdle()
		n.mu.Lock()
		at, ok := n.peekLocked()
		if !ok || at.After(deadline) {
			if n.now.Before(deadline) {
				n.now = deadline
			}
			n.mu.Unlock()
			return
		}
		fn := n.popLocked()
		n.mu.Unlock()
		fn()
	}
}

// RunUntil drives the simulation until cond holds or timeout of virtual
// time elapses.
func (n *Net) RunUntil(cond func() bool, timeout time.Duration) error {
	n.mu.Lock()
	deadline := n.now.Add(timeout)
	n.mu.Unlock()
	for {
		n.waitIdle()
		if cond() {
			return nil
		}
		n.mu.Lock()
		at, ok := n.peekLocked()
		if !ok {
			now := n.now
			n.mu.Unlock()
			return fmt.Errorf("simnet: RunUntil: no pending events and condition not met at %s", now.Format(time.RFC3339Nano))
		}
		if at.After(deadline) {
			n.mu.Unlock()
			return fmt.Errorf("simnet: RunUntil: timeout after %s", timeout)
		}
		fn := n.popLocked()
		n.mu.Unlock()
		fn()
	}
}

// RunToQuiescence drains every pending event and waits out all
// in-flight off-dispatcher work.
func (n *Net) RunToQuiescence() {
	for {
		n.waitIdle()
		if !n.step() {
			return
		}
	}
}

// NewNode creates a simulated host.
func (n *Net) NewNode(ip string) (netapi.Node, error) {
	if ip == "" {
		return nil, fmt.Errorf("simnet: node needs an IP")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.nodes[ip]; exists {
		return nil, fmt.Errorf("simnet: node %s already exists", ip)
	}
	nd := &node{net: n, ip: ip, nextEphemeral: 32768, domKey: n.newDomainLocked()}
	n.nodes[ip] = nd
	return nd, nil
}

type node struct {
	net           *Net
	ip            string
	nextEphemeral int
	closed        bool
	// domKey is the node's root dispatch domain: endpoints opened
	// directly on the node, and its timers, deliver there.
	domKey uint64
}

var _ netapi.Node = (*node)(nil)

// Mode is the zero mode: the node's own endpoints deliver on its root
// domain, ungated. Views in other modes are netapi's (Detach, Gated).
func (nd *node) Mode() netapi.Mode { return netapi.Mode{} }

// domKeyLocked picks the dispatch-domain key of an endpoint opening in
// mode m: a fresh private key when detached — its deliveries interleave
// independently in the seeded event order, modelling parallel
// per-endpoint dispatch — the node's root key otherwise. Caller holds
// net.mu.
func (nd *node) domKeyLocked(m netapi.Mode) uint64 {
	if m.Detached {
		return nd.net.newDomainLocked()
	}
	return nd.domKey
}

func (nd *node) IP() string { return nd.ip }

func (nd *node) Now() time.Time { return nd.net.Now() }

// WorkAdd / WorkDone expose the runtime's work tracker on the node.
func (nd *node) WorkAdd()  { nd.net.WorkAdd() }
func (nd *node) WorkDone() { nd.net.WorkDone() }

// ParkConn reports false: simulated dials complete instantly, so the
// simulator keeps no dial-reuse pool and the caller closes the conn.
func (nd *node) ParkConn(netapi.Conn) bool { return false }

func (nd *node) After(d time.Duration, fn func()) netapi.TimerID {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	nd.net.scheduleDomLocked(d, nd.domKey, fn)
	nd.net.timerSeq++
	return netapi.TimerID(nd.net.timerSeq)
}

// timer is a node's reusable timer: one event, pushed on the heap per
// arm and taken off it by Stop or the next Reset.
type timer struct {
	nd *node
	ev event
}

func (nd *node) NewTimer(fn func()) netapi.Timer {
	return &timer{nd: nd, ev: event{fn: fn, index: -1}}
}

func (t *timer) Reset(d time.Duration) {
	t.nd.net.mu.Lock()
	defer t.nd.net.mu.Unlock()
	t.stopLocked()
	t.nd.net.pushLocked(&t.ev, d, t.nd.domKey)
}

func (t *timer) Stop() {
	t.nd.net.mu.Lock()
	defer t.nd.net.mu.Unlock()
	t.stopLocked()
}

func (t *timer) stopLocked() {
	if t.ev.index >= 0 {
		heap.Remove(&t.nd.net.events, t.ev.index)
	}
}

// Close releases the node: every UDP socket and stream listener bound
// on its IP is closed and the IP becomes available to NewNode again.
// Stream connections are owned by their openers (they close with the
// session or peer that created them) and are left to those owners.
func (nd *node) Close() error {
	nd.net.mu.Lock()
	if nd.closed {
		nd.net.mu.Unlock()
		return nil
	}
	nd.closed = true
	var socks []*udpSocket
	var lns []*listener
	for _, s := range nd.net.udpSocks {
		if s.node == nd {
			socks = append(socks, s)
		}
	}
	for _, l := range nd.net.listeners {
		if l.node == nd {
			lns = append(lns, l)
		}
	}
	// Deregister only this node: a replacement node re-created at the
	// same IP after an earlier Close must not be swept away.
	if nd.net.nodes[nd.ip] == nd {
		delete(nd.net.nodes, nd.ip)
	}
	nd.net.mu.Unlock()
	for _, s := range socks {
		_ = s.Close()
	}
	for _, l := range lns {
		_ = l.Close()
	}
	return nil
}

// allocPortLocked picks a free ephemeral port. Caller holds net.mu.
func (nd *node) allocPortLocked() int {
	for {
		p := nd.nextEphemeral
		nd.nextEphemeral++
		if _, taken := nd.net.udpSocks[sockKey{nd.ip, p}]; !taken {
			if _, taken := nd.net.listeners[sockKey{nd.ip, p}]; !taken {
				return p
			}
		}
	}
}

// ---------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------

type udpSocket struct {
	net     *Net
	node    *node
	domKey  uint64
	addr    netapi.Addr
	handler netapi.PacketHandler
	// gate, when non-nil, parks deliveries while blocked (the
	// simulated analogue of a paused transport read loop).
	gate   *netapi.FlowGate
	closed bool
	groups []sockKey
	// taken is the lease-transfer flag of the delivery in progress (see
	// scheduleUDPLocked): one per socket, as realnet's read loop keeps.
	taken bool
}

var _ netapi.UDPSocket = (*udpSocket)(nil)

func (nd *node) OpenUDP(port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	return nd.OpenUDPIn(netapi.Mode{}, port, h)
}

func (nd *node) OpenUDPIn(m netapi.Mode, port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return nd.openUDPLocked(m, port, h)
}

// openUDPLocked binds the socket; it draws a detached endpoint's domain
// key first, before any check can fail, as every opener does: the draw
// order is part of a seed's execution. Caller holds net.mu.
func (nd *node) openUDPLocked(m netapi.Mode, port int, h netapi.PacketHandler) (*udpSocket, error) {
	dom := nd.domKeyLocked(m)
	if h == nil {
		return nil, fmt.Errorf("simnet: OpenUDP needs a handler")
	}
	if port == 0 {
		port = nd.allocPortLocked()
	}
	key := sockKey{nd.ip, port}
	if _, taken := nd.net.udpSocks[key]; taken {
		return nil, fmt.Errorf("simnet: %s:%d already bound", nd.ip, port)
	}
	s := &udpSocket{net: nd.net, node: nd, domKey: dom, addr: netapi.Addr{IP: nd.ip, Port: port}, handler: h, gate: m.Gate}
	nd.net.udpSocks[key] = s
	return s, nil
}

func (nd *node) JoinGroup(group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	return nd.JoinGroupIn(netapi.Mode{}, group, h)
}

func (nd *node) JoinGroupIn(m netapi.Mode, group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	if !group.IsMulticast() {
		return nil, fmt.Errorf("simnet: %s is not a multicast group", group)
	}
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	s, err := nd.openUDPLocked(m, 0, h)
	if err != nil {
		return nil, err
	}
	gk := sockKey{group.IP, group.Port}
	members := nd.net.groups[gk]
	if members == nil {
		members = map[sockKey]*udpSocket{}
		nd.net.groups[gk] = members
	}
	sk := sockKey{s.addr.IP, s.addr.Port}
	members[sk] = s
	s.groups = append(s.groups, gk)
	return s, nil
}

func (s *udpSocket) LocalAddr() netapi.Addr { return s.addr }

func (s *udpSocket) Send(to netapi.Addr, data []byte) error {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	if s.closed {
		return fmt.Errorf("simnet: send on closed socket %s", s.addr)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	if to.IsMulticast() {
		members := s.net.groups[sockKey{to.IP, to.Port}]
		for _, m := range sortedMembers(members) {
			s.deliverLocked(m, cp, to)
		}
		return nil
	}
	dst, ok := s.net.udpSocks[sockKey{to.IP, to.Port}]
	if !ok {
		// Real UDP silently drops datagrams to unbound ports.
		s.net.PacketsDropped++
		s.net.traceLocked("udp", "drop unbound", s.addr, to, len(data))
		return nil
	}
	s.deliverLocked(dst, cp, to)
	return nil
}

// sortedMembers returns group members in deterministic order.
func sortedMembers(members map[sockKey]*udpSocket) []*udpSocket {
	out := make([]*udpSocket, 0, len(members))
	for _, k := range sortedKeys(members) {
		out = append(out, members[k])
	}
	return out
}

func sortedKeys(m map[sockKey]*udpSocket) []sockKey {
	keys := make([]sockKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j-1], keys[j]
			if a.ip < b.ip || (a.ip == b.ip && a.port <= b.port) {
				break
			}
			keys[j-1], keys[j] = b, a
		}
	}
	return keys
}

func (s *udpSocket) deliverLocked(dst *udpSocket, data []byte, to netapi.Addr) {
	s.net.PacketsSent++
	from := s.addr
	// Fault decisions draw only from the dedicated fault RNG, so an
	// installed plan never perturbs the jitter RNG's draws. The latency
	// draw happens before the fault verdict is applied, so a
	// fault-dropped packet consumes exactly the draws a no-plan run
	// would — traffic the plan does not match keeps its exact timing.
	lat := s.net.latencyLocked()
	v := faultVerdict{cut: -1}
	if s.net.faults != nil {
		v = s.net.faults.udp(s.net.now, from, dst.addr, s.net.defaultReorderLocked(), len(data))
	}
	if v.drop {
		s.net.PacketsDropped++
		s.net.traceLocked("udp", "drop "+v.dropKind, from, dst.addr, len(data))
		return
	}
	if damaged, kind := v.damage(data); kind != "" {
		// Multicast members share the sender's copy: damage one of
		// their own.
		data = damaged
		s.net.traceLocked("udp", kind, from, dst.addr, len(data))
	}
	lat += v.extra
	s.net.scheduleUDPLocked(dst, from, to, data, lat)
	if v.dup {
		// The duplicate is a full independent delivery owning its own
		// leased buffer — exactly the hazard a receiver must survive.
		s.net.PacketsSent++
		s.net.traceLocked("udp", "dup", from, dst.addr, len(data))
		s.net.scheduleUDPLocked(dst, from, to, data, lat+v.dupDelay)
	}
}

// scheduleUDPLocked schedules one UDP delivery at lat from now. Caller
// holds Net.mu. The delivery re-checks destination and gate state when
// its event fires, and hands the handler a pooled buffer under the
// standard lease-flag protocol (the simulated twin of realnet's read
// loop).
func (n *Net) scheduleUDPLocked(dst *udpSocket, from, to netapi.Addr, data []byte, lat time.Duration) {
	var deliver func()
	deliver = func() {
		n.mu.Lock()
		if dst.closed {
			n.traceLocked("udp", "drop closed", from, dst.addr, len(data))
			n.mu.Unlock()
			return
		}
		if g := dst.gate; g != nil && g.Blocked() {
			// The destination's transport is paused: park the delivery
			// until the gate reopens (it re-checks on replay).
			n.traceLocked("udp", "defer", from, dst.addr, len(data))
			n.deferLocked(g, dst.domKey, deliver)
			n.mu.Unlock()
			return
		}
		n.traceLocked("udp", "deliver", from, dst.addr, len(data))
		n.mu.Unlock()
		buf := netapi.NewBuffer()
		m := copy(buf.Backing(), data)
		buf.SetFilled(m)
		// The lease-transfer signal lives on the socket, not the buffer:
		// the handler may release and the pool re-lease the buffer
		// before we look at it again (see netapi.Buffer). Deliveries to
		// one socket run one at a time, so one flag reset per delivery
		// serves them all; a flag per delivery would escape to the heap.
		dst.taken = false
		pkt := netapi.Packet{From: from, To: to, Data: buf.Bytes(), Buf: buf}
		pkt.BindLeaseFlag(&dst.taken)
		dst.handler(pkt)
		if !dst.taken {
			// Poison what the handler left: one that kept Data without
			// the lease reads zeros, not a datagram that happens to
			// survive until the buffer's next lease.
			clear(buf.Bytes())
			buf.Release()
		}
	}
	n.scheduleDomLocked(lat, dst.domKey, deliver)
}

func (s *udpSocket) Close() error {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	delete(s.net.udpSocks, sockKey{s.addr.IP, s.addr.Port})
	for _, gk := range s.groups {
		delete(s.net.groups[gk], sockKey{s.addr.IP, s.addr.Port})
	}
	return nil
}

// ---------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------

type listener struct {
	net    *Net
	node   *node
	addr   netapi.Addr
	accept netapi.ConnHandler
	recv   netapi.StreamHandler
	closed bool
	// mode is inherited by every accepted connection: detached, each
	// gets a private dispatch domain; gated, their deliveries park while
	// the gate is blocked.
	mode netapi.Mode
}

func (nd *node) ListenStream(port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	return nd.ListenStreamIn(netapi.Mode{}, port, accept, recv)
}

func (nd *node) ListenStreamIn(m netapi.Mode, port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	if recv == nil {
		return nil, fmt.Errorf("simnet: ListenStream needs a recv handler")
	}
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	if port == 0 {
		port = nd.allocPortLocked()
	}
	key := sockKey{nd.ip, port}
	if _, taken := nd.net.listeners[key]; taken {
		return nil, fmt.Errorf("simnet: %s:%d already listening", nd.ip, port)
	}
	l := &listener{net: nd.net, node: nd, addr: netapi.Addr{IP: nd.ip, Port: port}, accept: accept, recv: recv, mode: m}
	nd.net.listeners[key] = l
	return l, nil
}

func (l *listener) Close() error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.net.listeners, sockKey{l.addr.IP, l.addr.Port})
	return nil
}

// conn is one direction-aware endpoint of a stream.
type conn struct {
	net    *Net
	domKey uint64
	local  netapi.Addr
	remote netapi.Addr
	peer   *conn
	recv   netapi.StreamHandler
	closed bool
	// gate, when non-nil (accepted side of a gated listener), parks
	// inbound deliveries while blocked. pending counts this conn's
	// parked chunks so later arrivals queue behind them even after the
	// gate reopens — preserving TCP's in-order delivery.
	gate    *netapi.FlowGate
	pending int
	// lastDelivery enforces TCP's in-order delivery: a chunk never
	// arrives before one sent earlier on the same connection, even
	// though each draws an independent latency sample.
	lastDelivery time.Time
}

var _ netapi.Conn = (*conn)(nil)

func (nd *node) DialStream(to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	return nd.DialStreamIn(netapi.Mode{}, to, recv)
}

// DialStreamIn ignores m.Gate: a dialed connection is egress.
func (nd *node) DialStreamIn(m netapi.Mode, to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	if recv == nil {
		return nil, fmt.Errorf("simnet: DialStream needs a recv handler")
	}
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	l, ok := nd.net.listeners[sockKey{to.IP, to.Port}]
	if !ok {
		return nil, fmt.Errorf("simnet: connection refused: %s", to)
	}
	var v faultVerdict
	if nd.net.faults != nil {
		v = nd.net.faults.stream(nd.net.now, netapi.Addr{IP: nd.ip}, to)
	}
	if v.refuse {
		// Unhealing partition across the dial path: the SYN never
		// arrives. Fail fast instead of hanging the dialer forever.
		nd.net.traceLocked("strm", "refuse partition", netapi.Addr{IP: nd.ip}, to, 0)
		return nil, fmt.Errorf("simnet: connection refused (partitioned): %s", to)
	}
	clientDom := nd.domKeyLocked(m)
	serverDom := l.node.domKeyLocked(l.mode)
	local := netapi.Addr{IP: nd.ip, Port: nd.allocPortLocked()}
	client := &conn{net: nd.net, domKey: clientDom, local: local, remote: to, recv: recv}
	server := &conn{net: nd.net, domKey: serverDom, local: to, remote: local, recv: l.recv, gate: l.mode.Gate}
	client.peer, server.peer = server, client
	nd.net.traceLocked("strm", "connect", local, to, 0)
	nd.net.scheduleDomLocked(v.healHold+nd.net.latencyLocked()+v.extra, serverDom, func() {
		nd.net.mu.Lock()
		closed := l.closed
		accept := l.accept
		nd.net.traceLocked("strm", "accept", local, to, 0)
		nd.net.mu.Unlock()
		if closed {
			return
		}
		if accept != nil {
			accept(server)
		}
	})
	return client, nil
}

func (c *conn) LocalAddr() netapi.Addr  { return c.local }
func (c *conn) RemoteAddr() netapi.Addr { return c.remote }

func (c *conn) Send(data []byte) error {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	if c.closed {
		return fmt.Errorf("simnet: send on closed conn %s->%s", c.local, c.remote)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	peer := c.peer
	// Latency is drawn before the fault verdict so a dropped chunk
	// consumes the same shared-RNG draws a no-plan run would (see
	// deliverLocked).
	lat := c.net.latencyLocked()
	var v faultVerdict
	if c.net.faults != nil {
		v = c.net.faults.stream(c.net.now, c.local, c.remote)
	}
	if v.drop {
		// Unhealing partition: the chunk is gone. Real TCP would block
		// the sender and eventually reset; the simulator keeps senders
		// non-blocking, so the connection just goes silent.
		c.net.PacketsDropped++
		c.net.traceLocked("strm", "drop partition", c.local, c.remote, len(data))
		return nil
	}
	if v.healHold > 0 {
		c.net.traceLocked("strm", "stall", c.local, c.remote, len(data))
	}
	at := c.net.now.Add(v.healHold + lat + v.extra)
	if at.Before(c.lastDelivery) {
		at = c.lastDelivery
	}
	c.lastDelivery = at
	parked := false
	var deliver func()
	deliver = func() {
		c.net.mu.Lock()
		if peer.closed {
			if parked {
				peer.pending--
			}
			c.net.mu.Unlock()
			return
		}
		if g := peer.gate; g != nil {
			if g.Blocked() {
				// Park behind the gate. The first park counts into
				// pending so later chunks queue behind this one.
				if !parked {
					parked = true
					peer.pending++
				}
				c.net.deferLocked(g, peer.domKey, deliver)
				c.net.mu.Unlock()
				return
			}
			if !parked && peer.pending > 0 {
				// The gate reopened but earlier chunks are still
				// replaying ahead of us: requeue at the same instant
				// (later seq) to keep TCP's in-order delivery.
				c.net.scheduleDomLocked(0, peer.domKey, deliver)
				c.net.mu.Unlock()
				return
			}
			if parked {
				parked = false
				peer.pending--
			}
		}
		c.net.traceLocked("strm", "chunk", c.local, c.remote, len(cp))
		c.net.mu.Unlock()
		peer.recv(peer, cp)
	}
	c.net.scheduleDomLocked(at.Sub(c.net.now), peer.domKey, deliver)
	return nil
}

func (c *conn) Close() error {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	peer := c.peer
	c.net.traceLocked("strm", "close", c.local, c.remote, 0)
	c.net.scheduleDomLocked(c.net.latencyLocked(), peer.domKey, func() {
		c.net.mu.Lock()
		if peer.closed {
			c.net.mu.Unlock()
			return
		}
		peer.closed = true
		c.net.mu.Unlock()
		peer.recv(peer, nil) // nil data signals close
	})
	return nil
}
