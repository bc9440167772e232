// Package realnet implements netapi over real loopback sockets. It lets
// the same protocol stacks and bridges that run under the simulator run
// over the operating system's UDP and TCP on loopback — used by the
// examples and the starlinkd daemon. A node named by a 127/8 address
// binds its sockets there, so two processes can each host a case on a
// fixed port; any other name binds 127.0.0.1.
//
// Substitution note (DESIGN.md §5): IP multicast is virtualised with an
// in-process group registry — joining a group binds a real ephemeral
// UDP port and registers it; sending to a group address fans out
// unicast datagrams to every member. Containers frequently lack
// multicast routes, and the paper's evaluation was single-machine, so
// the rendezvous semantics are preserved exactly while staying
// deployable anywhere.
//
// Concurrency (netapi's per-endpoint contract): there is no global
// dispatcher lock. Every endpoint dispatches its callbacks under a
// serial dispatch domain; by default all endpoints and timers of one
// node share the node's root domain (protocol components keep their
// single-threaded model), while endpoints opened through a detached
// node view (netapi.Detach) each get a private domain and run in
// parallel — the mode the Automata Engine and the provisioning
// dispatcher use, which lets a multi-case deployment ingest on every
// core at once.
//
// Buffer ownership: inbound datagrams are read straight into leased
// pooled buffers (netapi.Buffer) and handed to the handler without
// copying; a handler that keeps the bytes past the callback takes the
// lease (Packet.TakeLease) and releases it, otherwise the buffer is
// reused for the next read. Stream chunks are likewise delivered as
// views into the connection's read buffer, valid only for the duration
// of the callback.
package realnet

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"starlink/internal/netapi"
)

// loopback is the address a node binds to unless it names another
// 127/8 host.
var loopback = netip.AddrFrom4([4]byte{127, 0, 0, 1})

// hostOf is the loopback address an IP names: itself when in 127/8,
// 127.0.0.1 for any other.
func hostOf(ip string) netip.Addr {
	if ip != "127.0.0.1" && strings.HasPrefix(ip, "127.") {
		if a, err := netip.ParseAddr(ip); err == nil && a.Is4() {
			return a
		}
	}
	return loopback
}

// hostString renders a loopback address, allocating for none but the
// ones other than 127.0.0.1.
func hostString(a netip.Addr) string {
	if a = a.Unmap(); a == loopback {
		return "127.0.0.1"
	}
	return a.String()
}

// recvBatch caps a UDP read loop's buffer slab: how many datagrams one
// read may return once a socket's kernel queue has shown a backlog.
// 32 × 64 KiB bounds what a saturated socket pins at 2 MiB; a socket
// that parks between datagrams holds none (see readLoop).
const recvBatch = 32

// maxParkedPerDest bounds the dial-reuse pool per destination address.
const maxParkedPerDest = 4

// ioTimeout bounds a dial and each stream write. A peer that stops
// reading fails the write waiting on it with os.ErrDeadlineExceeded
// instead of holding the sender until Close; the error latches, so the
// connection is never parked for reuse.
var ioTimeout = 5 * time.Second

// domain is one serial dispatch context: callbacks scheduled on a
// domain never overlap. Handlers run holding mu; RunUntil locks every
// node's root domain to evaluate its condition against quiesced state.
//
// root marks a node's root domain (shared by the node's undetached
// endpoints and timers) as opposed to the private domain of a detached
// endpoint. The dial-reuse pool only handles private-domain
// connections: a claimed connection keeps the domain it was dialed
// with, and handing a root domain to an unrelated claimant would break
// the per-node serial-execution contract.
type domain struct {
	rt   *Runtime
	mu   sync.Mutex
	root bool
}

// run executes one callback on the domain and wakes RunUntil waiters.
func (d *domain) run(fn func()) {
	d.mu.Lock()
	fn()
	d.mu.Unlock()
	d.rt.wake()
}

// Runtime is a real-socket netapi runtime.
//
// Locking: stateMu guards the runtime's own tables (groups, the
// dial-reuse pool, closed flags); per-domain mutexes serialise handler
// callbacks. Handlers run holding only their domain, so they may freely
// call Send / Close, which take stateMu (or a connection's write
// mutex), and After / Timer, which take no runtime lock, but never
// another domain.
//
// Components such as the concurrent Automata Engine hand payloads off
// to worker goroutines; they report that work through the node's
// WorkAdd/WorkDone so RunUntil only evaluates its condition while no
// handed-off work is in flight (which also publishes the workers'
// writes to the condition).
type Runtime struct {
	stateMu  sync.Mutex // guards groups, pool and closed flags
	waitCh   chan struct{}
	timerSeq atomic.Uint64
	groups   map[netapi.Addr][]*udpSocket     // group address -> members
	parked   map[netip.AddrPort][]*streamConn // dial-reuse pool, by remote address

	// newRx builds the receive primitive of every UDP socket the
	// runtime opens; fixed at construction.
	newRx func(*udpSocket) receiver

	rootsMu sync.Mutex
	roots   []*domain // root domain of every live node, creation order

	workMu   sync.Mutex
	inflight int
}

var _ netapi.Runtime = (*Runtime)(nil)

// New creates a runtime.
func New() *Runtime { return newRuntime(newReceiver) }

// newRuntime creates a runtime whose UDP sockets read through newRx:
// the platform's receive primitive for New, the portable one where a
// test compares the two in one build.
func newRuntime(newRx func(*udpSocket) receiver) *Runtime {
	return &Runtime{
		newRx:  newRx,
		waitCh: make(chan struct{}, 1),
		groups: map[netapi.Addr][]*udpSocket{},
		parked: map[netip.AddrPort][]*streamConn{},
	}
}

// WorkAdd registers one unit of in-flight off-dispatch work.
func (rt *Runtime) WorkAdd() {
	rt.workMu.Lock()
	rt.inflight++
	rt.workMu.Unlock()
}

// WorkDone retires one unit of in-flight work and wakes RunUntil
// waiters.
func (rt *Runtime) WorkDone() {
	rt.workMu.Lock()
	rt.inflight--
	rt.workMu.Unlock()
	rt.wake()
}

// idle reports whether no handed-off work is in flight; acquiring
// workMu publishes the finished workers' writes.
func (rt *Runtime) idle() bool {
	rt.workMu.Lock()
	defer rt.workMu.Unlock()
	return rt.inflight == 0
}

// wake nudges RunUntil waiters.
func (rt *Runtime) wake() {
	select {
	case rt.waitCh <- struct{}{}:
	default:
	}
}

// NewNode returns a host on loopback: at ip when it is a 127/8
// address, at 127.0.0.1 otherwise.
func (rt *Runtime) NewNode(ip string) (netapi.Node, error) {
	n := &node{rt: rt, ip: hostOf(ip), owned: map[netapi.Closer]struct{}{}}
	n.host = hostString(n.ip)
	n.root = &domain{rt: rt, root: true}
	rt.rootsMu.Lock()
	rt.roots = append(rt.roots, n.root)
	rt.rootsMu.Unlock()
	return n, nil
}

// RunUntil waits (wall-clock) until cond holds or timeout elapses.
// cond is evaluated with every node's root domain locked, so state
// written by undetached handler callbacks is safe to read; state owned
// by detached endpoints must be read through the owning component's
// own synchronisation.
func (rt *Runtime) RunUntil(cond func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if rt.idle() {
			rt.rootsMu.Lock()
			roots := append([]*domain(nil), rt.roots...)
			rt.rootsMu.Unlock()
			for _, d := range roots {
				d.mu.Lock()
			}
			ok := cond()
			for i := len(roots) - 1; i >= 0; i-- {
				roots[i].mu.Unlock()
			}
			if ok {
				return nil
			}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("realnet: RunUntil: timeout after %s", timeout)
		}
		wait := 10 * time.Millisecond
		if remain < wait {
			wait = remain
		}
		select {
		case <-rt.waitCh:
		case <-time.After(wait):
		}
	}
}

// Run sleeps for d of wall-clock time (events dispatch in background).
func (rt *Runtime) Run(d time.Duration) { time.Sleep(d) }

type node struct {
	rt   *Runtime
	ip   netip.Addr // every socket of the node binds here
	host string     // ip, rendered
	// root is the node's default dispatch domain: every endpoint the
	// node opens directly, and every timer it schedules, dispatches
	// there.
	root *domain

	// owned tracks the live sockets, listeners and dialed connections
	// this node opened, so Close can release them all. Entries remove
	// themselves when closed individually, keeping the set bounded by
	// the number of live endpoints rather than the churn.
	ownedMu sync.Mutex
	closed  bool
	owned   map[netapi.Closer]struct{}
}

// adopt registers a resource for teardown with the node. If the node
// is already closed the resource is closed immediately.
func (n *node) adopt(c netapi.Closer) {
	n.ownedMu.Lock()
	if n.closed {
		n.ownedMu.Unlock()
		_ = c.Close()
		return
	}
	n.owned[c] = struct{}{}
	n.ownedMu.Unlock()
}

// forget unregisters a resource that closed itself.
func (n *node) forget(c netapi.Closer) {
	n.ownedMu.Lock()
	delete(n.owned, c)
	n.ownedMu.Unlock()
}

// Close releases every socket, listener and dialed connection the node
// opened (including through detached views). Closing twice is a no-op.
func (n *node) Close() error {
	n.ownedMu.Lock()
	if n.closed {
		n.ownedMu.Unlock()
		return nil
	}
	n.closed = true
	owned := make([]netapi.Closer, 0, len(n.owned))
	for c := range n.owned {
		owned = append(owned, c)
	}
	n.owned = map[netapi.Closer]struct{}{}
	n.ownedMu.Unlock()
	for _, c := range owned {
		_ = c.Close()
	}
	n.rt.rootsMu.Lock()
	for i, d := range n.rt.roots {
		if d == n.root {
			n.rt.roots = append(n.rt.roots[:i], n.rt.roots[i+1:]...)
			break
		}
	}
	n.rt.rootsMu.Unlock()
	return nil
}

var _ netapi.Node = (*node)(nil)

func (n *node) IP() string { return n.host }

// Mode is the zero mode: the node's own endpoints dispatch on its root
// domain, ungated. Views in other modes are netapi's (Detach, Gated).
func (n *node) Mode() netapi.Mode { return netapi.Mode{} }

// WorkAdd / WorkDone expose the runtime's work tracker on the node.
func (n *node) WorkAdd()  { n.rt.WorkAdd() }
func (n *node) WorkDone() { n.rt.WorkDone() }

func (n *node) Now() time.Time { return time.Now() }

// domainFor picks the dispatch domain of an endpoint opening in mode m:
// a private one when detached, the node's root otherwise.
func (n *node) domainFor(m netapi.Mode) *domain {
	if m.Detached {
		return &domain{rt: n.rt}
	}
	return n.root
}

func (n *node) After(d time.Duration, fn func()) netapi.TimerID {
	time.AfterFunc(d, func() { n.root.run(fn) })
	return netapi.TimerID(n.rt.timerSeq.Add(1))
}

// timer is a node's reusable timer over one time.Timer. armed marks an
// arm whose fire has not been seen; skip counts the fires of replaced
// arms that the runtime had already started, which must not run fn.
type timer struct {
	root  *domain
	fn    func()
	t     *time.Timer
	mu    sync.Mutex
	armed bool
	skip  int
}

func (n *node) NewTimer(fn func()) netapi.Timer {
	t := &timer{root: n.root, fn: fn}
	t.t = time.AfterFunc(time.Hour, t.fire)
	t.t.Stop()
	return t
}

func (t *timer) Reset(d time.Duration) {
	t.mu.Lock()
	if !t.t.Reset(d) && t.armed {
		t.skip++ // the replaced arm expired: its fire is on its way
	}
	t.armed = true
	t.mu.Unlock()
}

func (t *timer) Stop() {
	t.mu.Lock()
	if !t.t.Stop() && t.armed {
		t.skip++
	}
	t.armed = false
	t.mu.Unlock()
}

func (t *timer) fire() {
	t.mu.Lock()
	run := t.skip == 0 && t.armed
	if t.skip > 0 {
		t.skip--
	} else {
		t.armed = false
	}
	t.mu.Unlock()
	if run {
		t.root.run(t.fn)
	}
}

// ---------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------

type udpSocket struct {
	rt    *Runtime
	owner *node
	dom   *domain
	conn  *net.UDPConn
	// rc is the socket's raw control handle for the recvmmsg / sendmmsg
	// paths: the syscall callbacks run under the runtime netpoller, so a
	// would-block parks the goroutine until the fd is ready instead of
	// spinning.
	rc      syscall.RawConn
	addr    netapi.Addr
	handler netapi.PacketHandler
	// gate, when non-nil, pauses the read loop while blocked
	// (backpressure from a pressured ingest queue downstream).
	gate   *netapi.FlowGate
	groups []netapi.Addr
	closed atomic.Bool

	// The read loop's state, owned exclusively by its goroutine — no
	// locking. rx is the receive primitive; slab the leased buffers one
	// read fills, slab0 its inline first slot (a socket that never sees
	// a backlog allocates no slab); srcCache interns the source-IP
	// strings of peers other than 127.0.0.1.
	rx       receiver
	slab     netapi.Batch
	slab0    [1]*netapi.Buffer
	srcCache map[netip.Addr]string

	// sendMu serialises the multicast fan-out scratch: the snapshot of
	// member destinations (sendDsts, reused across sends — no per-call
	// slice) and the platform's sendmmsg vectors in batch. (On Linux
	// batch also holds the recvmmsg primitive, which is read-loop state.)
	sendMu   sync.Mutex
	sendDsts []netip.AddrPort
	batch    batchState
}

var _ netapi.UDPSocket = (*udpSocket)(nil)

func (n *node) OpenUDP(port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	return n.OpenUDPIn(netapi.Mode{}, port, h)
}

func (n *node) OpenUDPIn(m netapi.Mode, port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	if h == nil {
		return nil, fmt.Errorf("realnet: OpenUDP needs a handler")
	}
	conn, err := net.ListenUDP("udp4", net.UDPAddrFromAddrPort(netip.AddrPortFrom(n.ip, uint16(port))))
	if err != nil {
		return nil, fmt.Errorf("realnet: %w", err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("realnet: %w", err)
	}
	local := conn.LocalAddr().(*net.UDPAddr)
	s := &udpSocket{
		rt:      n.rt,
		owner:   n,
		dom:     n.domainFor(m),
		conn:    conn,
		rc:      rc,
		addr:    netapi.Addr{IP: n.host, Port: local.Port},
		handler: h,
		gate:    m.Gate,
	}
	s.rx = n.rt.newRx(s)
	n.adopt(s)
	go s.readLoop()
	return s, nil
}

func (n *node) JoinGroup(group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	return n.JoinGroupIn(netapi.Mode{}, group, h)
}

func (n *node) JoinGroupIn(m netapi.Mode, group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	if !group.IsMulticast() {
		return nil, fmt.Errorf("realnet: %s is not a multicast group", group)
	}
	sock, err := n.OpenUDPIn(m, 0, h)
	if err != nil {
		return nil, err
	}
	s := sock.(*udpSocket)
	n.rt.stateMu.Lock()
	n.rt.groups[group] = append(n.rt.groups[group], s)
	s.groups = append(s.groups, group)
	n.rt.stateMu.Unlock()
	return s, nil
}

// receiver is the receive primitive under the read loop: recvmmsg on
// Linux, one ReadFromUDPAddrPort everywhere else and under the
// `starlink.nobatch` tag (newReceiver is the platform's choice).
type receiver interface {
	// recv fills s.slab[:n] with the datagrams of one read, waiting in
	// the netpoller while the socket has none. parked reports that the
	// read found the kernel queue empty and waited; a primitive that can
	// wait for readability first shrinks s.slab to one slot and releases
	// its buffer for the wait, so a parked socket pins no pool memory
	// whatever it grew to before.
	recv() (n int, parked bool, err error)
	// datagram returns the length and source of the read's i-th datagram.
	datagram(i int) (size int, from netip.AddrPort)
}

// portableReceiver reads one datagram into slot 0. It cannot see the
// kernel queue, so it reports every read as parked, the slab stays at
// one buffer, and that buffer is held through the wait.
type portableReceiver struct {
	s    *udpSocket
	size int
	from netip.AddrPort
}

func newPortableReceiver(s *udpSocket) receiver { return &portableReceiver{s: s} }

func (p *portableReceiver) recv() (int, bool, error) {
	var err error
	p.size, p.from, err = p.s.conn.ReadFromUDPAddrPort(p.s.slab[0].Backing())
	if err != nil {
		return 0, true, err
	}
	netapi.CountRecvSingle()
	return 1, true, nil
}

func (p *portableReceiver) datagram(int) (int, netip.AddrPort) { return p.size, p.from }

// srcIP returns the dotted-quad string of a datagram source without
// allocating for the one address realnet traffic normally carries
// (127.0.0.1, where a node binds unless it names another 127/8 host).
// Other 127/8 sources are interned in a cache the read loop goroutine
// owns, bounded defensively: an unbounded map keyed by
// remote-controlled input must not exist.
func (s *udpSocket) srcIP(a netip.Addr) string {
	a = a.Unmap()
	if a == loopback {
		return "127.0.0.1"
	}
	if ip, ok := s.srcCache[a]; ok {
		return ip
	}
	ip := a.String()
	if s.srcCache == nil {
		s.srcCache = make(map[netip.Addr]string)
	}
	if len(s.srcCache) < 4096 {
		s.srcCache[a] = ip
	}
	return ip
}

// readLoop reads datagrams straight into leased pooled buffers and
// invokes the handler inline, in arrival order, under the socket's
// dispatch domain: no per-datagram copy, closure or allocation. A slot
// whose lease the handler took is re-leased before the next read, the
// others are reused.
//
// The slab sizes itself from what the loop observes. It starts at one
// buffer and doubles, up to recvBatch, whenever a read came back full
// without having parked — the kernel queue already held a backlog when
// the loop returned to it — and the primitive drops it back to one the
// moment it finds the queue empty, and (recvmmsg) lets that one go too
// while it waits. So a socket that parks between datagrams holds
// nothing, a saturated one drains recvBatch datagrams per syscall
// within six reads, and a burst pins nothing once drained.
//
// The flow gate is checked per read: a blocked gate parks the loop with
// the whole slab released (a paused reader must not pin pool memory),
// and a read already off the wire when the gate closes is held — one
// bounded slab, usually one datagram — and delivered in order on reopen.
func (s *udpSocket) readLoop() {
	s.slab = s.slab0[:]
	// The lease-transfer signal lives in this loop's own frame, not on
	// the buffer: once the handler takes the lease the new owner may
	// Release and the pool may re-lease the buffer to another read loop
	// before we look, so buffer state checked here could belong to the
	// buffer's next life (see netapi.Buffer). Its address reaches the
	// handler, so it lives on the heap: declared once per loop and reset
	// per delivery, not once per datagram.
	taken := false
	for {
		if g := s.gate; g != nil && g.Blocked() {
			s.slab.Release()
			g.Wait()
			if s.closed.Load() {
				return
			}
		}
		s.slab.Refill()
		n, parked, err := s.rx.recv()
		if err != nil {
			s.slab.Release()
			return // socket closed
		}
		if g := s.gate; g != nil && g.Blocked() {
			g.Wait()
		}
		if s.closed.Load() {
			continue
		}
		s.dom.mu.Lock()
		for i := 0; i < n; i++ {
			if s.closed.Load() {
				break
			}
			buf := s.slab[i]
			size, from := s.rx.datagram(i)
			buf.SetFilled(size)
			taken = false
			pkt := netapi.Packet{
				From:  netapi.Addr{IP: s.srcIP(from.Addr()), Port: int(from.Port())},
				To:    s.addr,
				Data:  buf.Bytes(),
				Buf:   buf,
				Batch: n,
			}
			pkt.BindLeaseFlag(&taken)
			s.handler(pkt)
			if taken {
				s.slab[i] = nil // transferred: the handler releases it
			}
		}
		s.dom.mu.Unlock()
		s.rt.wake()
		if n == len(s.slab) && !parked && n < recvBatch {
			s.slab = s.slab.Resize(2 * n)
		}
	}
}

func (s *udpSocket) LocalAddr() netapi.Addr { return s.addr }

// Send transmits a datagram. A multicast destination fans out to all
// live group members: the member snapshot reuses a per-socket scratch
// slice (no per-send allocation), and on the Linux fast path the whole
// fan-out is one sendmmsg instead of one write syscall per member.
func (s *udpSocket) Send(to netapi.Addr, data []byte) error {
	if to.IsMulticast() {
		s.sendMu.Lock()
		dsts := s.sendDsts[:0]
		s.rt.stateMu.Lock()
		for _, m := range s.rt.groups[to] {
			if !m.closed.Load() {
				dsts = append(dsts, netip.AddrPortFrom(m.owner.ip, uint16(m.addr.Port)))
			}
		}
		s.rt.stateMu.Unlock()
		s.sendDsts = dsts
		var err error
		if len(dsts) > 1 {
			err = s.fanoutBatch(data, dsts)
		} else {
			err = s.fanoutSerial(data, dsts)
		}
		s.sendMu.Unlock()
		return err
	}
	netapi.CountSendSingle()
	dst := netip.AddrPortFrom(hostOf(to.IP), uint16(to.Port))
	if _, err := s.conn.WriteToUDPAddrPort(data, dst); err != nil {
		return fmt.Errorf("realnet: send to %s: %w", to, err)
	}
	return nil
}

// fanoutSerial transmits data to every destination with one write
// syscall per member — the portable fan-out, and the single-member
// fast case. Caller holds s.sendMu.
func (s *udpSocket) fanoutSerial(data []byte, dsts []netip.AddrPort) error {
	for _, dst := range dsts {
		netapi.CountSendSingle()
		if _, err := s.conn.WriteToUDPAddrPort(data, dst); err != nil {
			return fmt.Errorf("realnet: multicast to %s: %w", dst, err)
		}
	}
	return nil
}

func (s *udpSocket) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.rt.stateMu.Lock()
	for _, key := range s.groups {
		members := s.rt.groups[key]
		for i, m := range members {
			if m == s {
				s.rt.groups[key] = append(members[:i], members[i+1:]...)
				break
			}
		}
	}
	s.rt.stateMu.Unlock()
	s.owner.forget(s)
	return s.conn.Close()
}

// ---------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------

type listener struct {
	rt     *Runtime
	owner  *node
	ln     net.Listener
	closed atomic.Bool
}

// Addr returns the listener's bound address (ephemeral listens learn
// their port here).
func (l *listener) Addr() netapi.Addr {
	ta := l.ln.Addr().(*net.TCPAddr)
	return netapi.Addr{IP: l.owner.host, Port: ta.Port}
}

func (n *node) ListenStream(port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	return n.ListenStreamIn(netapi.Mode{}, port, accept, recv)
}

func (n *node) ListenStreamIn(m netapi.Mode, port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	if recv == nil {
		return nil, fmt.Errorf("realnet: ListenStream needs a recv handler")
	}
	ln, err := net.Listen("tcp4", netip.AddrPortFrom(n.ip, uint16(port)).String())
	if err != nil {
		return nil, fmt.Errorf("realnet: %w", err)
	}
	l := &listener{rt: n.rt, owner: n, ln: ln}
	n.adopt(l)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Each accepted connection is its own endpoint: detached, it
			// gets a private domain so connections ingest in parallel.
			dom := n.domainFor(m)
			sc := newStreamConn(n.rt, c, recv, dom)
			sc.owner = n
			sc.gate = m.Gate
			n.adopt(sc)
			dom.run(func() {
				if accept != nil {
					accept(sc)
				}
			})
			go sc.readLoop()
		}
	}()
	return l, nil
}

func (l *listener) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	l.owner.forget(l)
	return l.ln.Close()
}

// connState is a stream connection's pool lifecycle, guarded by the
// runtime's stateMu.
type connState int

const (
	connActive connState = iota
	connParked           // in the dial-reuse pool, no user
	connClosed
)

type streamConn struct {
	rt     *Runtime
	dom    *domain
	c      net.Conn
	local  netapi.Addr
	remote netapi.Addr
	dialed bool

	// recv is the inbound handler, guarded by dom.mu. Invariant: recv
	// and the pool state change together under BOTH dom.mu and stateMu
	// (lock order: dom.mu → stateMu), so under dom.mu alone a nil recv
	// means the connection has no user (parked or closed) — a claim in
	// progress can never be observed half-done.
	recv netapi.StreamHandler

	// state and owner are guarded by rt.stateMu. owner is nil while the
	// connection sits in the dial-reuse pool (no node owns it).
	state connState
	owner *node

	// gate, when non-nil (accepted conns on a gated listener), pauses
	// the read loop while blocked. Immutable after the read loop starts.
	gate *netapi.FlowGate

	// Writes take turns: a Send holds wmu across its write, so its bytes
	// are never interleaved with another's, and a peer that stops reading
	// holds every sender back instead of letting their bytes pile up
	// here. werr latches the first write error for subsequent senders.
	// wparked is set by ParkConn while it holds wmu (so no write is in
	// flight) and cleared when the connection leaves the pool: a Send
	// racing the park fails instead of interleaving its bytes with the
	// next claimant's traffic. It is atomic because those clearing it
	// hold stateMu, which must never wait on a Send stuck in a write.
	wmu     sync.Mutex
	wparked atomic.Bool
	werr    error
}

var _ netapi.Conn = (*streamConn)(nil)

func newStreamConn(rt *Runtime, c net.Conn, recv netapi.StreamHandler, dom *domain) *streamConn {
	la := c.LocalAddr().(*net.TCPAddr).AddrPort()
	ra := c.RemoteAddr().(*net.TCPAddr).AddrPort()
	return &streamConn{
		rt: rt, c: c, recv: recv, dom: dom,
		local:  netapi.Addr{IP: hostString(la.Addr()), Port: int(la.Port())},
		remote: netapi.Addr{IP: hostString(ra.Addr()), Port: int(ra.Port())},
	}
}

func (n *node) DialStream(to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	return n.DialStreamIn(netapi.Mode{}, to, recv)
}

// DialStreamIn ignores m.Gate: a dialed connection is egress.
func (n *node) DialStreamIn(m netapi.Mode, to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	if recv == nil {
		return nil, fmt.Errorf("realnet: DialStream needs a recv handler")
	}
	dom := n.domainFor(m)
	// Only detached dials may reuse a parked connection: the claimed
	// conn keeps the private domain it was dialed with, which for a
	// detached caller is exactly the per-endpoint domain it would have
	// been given anyway. An undetached dial needs its callbacks on the
	// node's root domain, so it always opens a fresh connection.
	if !dom.root {
		if sc := n.rt.claimParked(to, recv, n); sc != nil {
			n.adopt(sc)
			return sc, nil
		}
	}
	c, err := net.DialTimeout("tcp4", net.JoinHostPort(hostString(hostOf(to.IP)), strconv.Itoa(to.Port)), ioTimeout)
	if err != nil {
		return nil, fmt.Errorf("realnet: dial %s: %w", to, err)
	}
	sc := newStreamConn(n.rt, c, recv, dom)
	sc.dialed = true
	sc.owner = n
	n.adopt(sc)
	go sc.readLoop()
	return sc, nil
}

// removeParkedLocked drops a connection from the dial-reuse pool.
// Caller holds rt.stateMu.
func (rt *Runtime) removeParkedLocked(sc *streamConn) {
	key := poolKey(sc.remote)
	pool := rt.parked[key]
	for i, p := range pool {
		if p == sc {
			pool = append(pool[:i], pool[i+1:]...)
			break
		}
	}
	if len(pool) == 0 {
		delete(rt.parked, key)
	} else {
		rt.parked[key] = pool
	}
}

// poolKey is the dial-reuse pool's key for a connection's remote
// address: the loopback address and port it names.
func poolKey(a netapi.Addr) netip.AddrPort {
	return netip.AddrPortFrom(hostOf(a.IP), uint16(a.Port))
}

// claimParked pops a live parked connection to the destination from
// the dial-reuse pool, rebinding its receive handler and owner in one
// atomic step (under the connection's domain plus stateMu), or returns
// nil. Only detached dials call it, and ParkConn only admits
// private-domain connections, so the claimant inherits a dispatch
// domain used by this connection alone — never a node's root domain.
func (rt *Runtime) claimParked(to netapi.Addr, recv netapi.StreamHandler, owner *node) *streamConn {
	for {
		rt.stateMu.Lock()
		var cand *streamConn
		pool := rt.parked[poolKey(to)]
		for i := len(pool) - 1; i >= 0; i-- {
			if pool[i].state == connParked {
				cand = pool[i]
				break
			}
		}
		rt.stateMu.Unlock()
		if cand == nil {
			return nil
		}
		// Re-check under both locks: the candidate may have been
		// claimed by a racing dial or evicted by stray bytes meanwhile.
		cand.dom.mu.Lock()
		rt.stateMu.Lock()
		if cand.state == connParked {
			cand.state = connActive
			rt.removeParkedLocked(cand)
			cand.recv = recv
			cand.owner = owner
			cand.wparked.Store(false)
			rt.stateMu.Unlock()
			cand.dom.mu.Unlock()
			return cand
		}
		rt.stateMu.Unlock()
		cand.dom.mu.Unlock()
	}
}

// ParkConn returns a healthy detached-dialed connection to the
// runtime's dial-reuse pool: a later detached
// DialStream to the same address reuses the established connection
// instead of a fresh TCP handshake — the client-side reuse behind
// netengine.NewRequester (whose engine always dials detached).
// Parking transfers ownership from the node to the runtime: the
// connection no longer closes with the node, it lives in the pool
// (bounded per destination) until claimed or evicted. Bytes arriving
// while parked evict the connection (they would desynchronise the
// next user).
func (n *node) ParkConn(c netapi.Conn) bool {
	sc, ok := c.(*streamConn)
	if !ok || !sc.dialed {
		return false
	}
	if sc.dom.root {
		// A connection dialed undetached dispatches on its node's root
		// domain; parking it would hand that domain to whichever caller
		// claims the connection next, entangling two nodes' serial
		// execution. Only private-domain (detached) dials are poolable.
		return false
	}
	// The user-to-parked transition is atomic under all three locks
	// (see the recv invariant on streamConn). wmu is only tried: a Send
	// holds it across a write that can block for as long as the peer
	// does not read, so a held wmu means a write in flight — not clean.
	// Holding it, ParkConn latches wparked, so a Send racing the park
	// either completes before it or observes wparked and refuses. A
	// concurrent claim likewise can never observe the connection pooled
	// but still carrying the old handler.
	sc.dom.mu.Lock()
	n.rt.stateMu.Lock()
	locked := sc.wmu.TryLock()
	if !locked || sc.werr != nil || sc.state != connActive || len(n.rt.parked[poolKey(sc.remote)]) >= maxParkedPerDest {
		if locked {
			sc.wmu.Unlock()
		}
		n.rt.stateMu.Unlock()
		sc.dom.mu.Unlock()
		return false
	}
	sc.wparked.Store(true)
	sc.state = connParked
	n.rt.parked[poolKey(sc.remote)] = append(n.rt.parked[poolKey(sc.remote)], sc)
	sc.recv = nil
	owner := sc.owner
	sc.owner = nil
	sc.wmu.Unlock()
	n.rt.stateMu.Unlock()
	sc.dom.mu.Unlock()
	if owner != nil {
		owner.forget(sc)
	}
	return true
}

// streamReadBufs recycles the stream read loops' buffers: a connection
// lives for one exchange unless it is parked, and allocating and zeroing
// 64 KiB for each was a third of the bytes a dispatcher allocated per
// interaction. Not a netapi.Buffer lease — a read loop holds its buffer
// for as long as its connection lives, parked ones included, and must
// not read as leaked in netapi.LeasedBuffers.
const streamReadBufSize = 64 * 1024

var streamReadBufs = sync.Pool{New: func() any { return new([streamReadBufSize]byte) }}

// readLoop delivers inbound chunks as views into the connection's read
// buffer, serially under the connection's domain. The slice is valid
// only for the duration of the callback; consumers copy or consume
// (the netengine framer copies each complete frame into a lease and
// buffers only a trailing partial frame).
func (sc *streamConn) readLoop() {
	bp := streamReadBufs.Get().(*[streamReadBufSize]byte)
	defer streamReadBufs.Put(bp)
	buf := bp[:]
	for {
		if g := sc.gate; g != nil {
			// Backpressure: stop pulling bytes off the wire while the
			// downstream ingest queue is pressured; unread data queues in
			// the kernel socket buffer and then in the peer's send path.
			g.Wait()
		}
		nr, err := sc.c.Read(buf)
		if nr > 0 {
			if g := sc.gate; g != nil {
				// A read already in flight when the gate closed: hold the
				// chunk until reopen so recv never runs while paused.
				g.Wait()
			}
			sc.dom.mu.Lock()
			recv := sc.recv
			if recv == nil {
				// No user: stray bytes on a parked (or already closed)
				// connection would desynchronise the next user — evict.
				sc.rt.stateMu.Lock()
				if sc.state == connParked {
					sc.rt.removeParkedLocked(sc)
					sc.wparked.Store(false)
				}
				sc.state = connClosed
				sc.rt.stateMu.Unlock()
				sc.dom.mu.Unlock()
				_ = sc.c.Close()
				return
			}
			recv(sc, buf[:nr])
			sc.dom.mu.Unlock()
			sc.rt.wake()
		}
		if err != nil {
			sc.dom.mu.Lock()
			recv := sc.recv
			sc.rt.stateMu.Lock()
			st := sc.state
			if st == connParked {
				sc.rt.removeParkedLocked(sc)
				sc.wparked.Store(false)
			}
			sc.state = connClosed
			owner := sc.owner
			sc.owner = nil
			sc.rt.stateMu.Unlock()
			if st == connActive && recv != nil {
				if owner != nil {
					owner.forget(sc)
				}
				recv(sc, nil)
				sc.dom.mu.Unlock()
				sc.rt.wake()
			} else {
				sc.dom.mu.Unlock()
			}
			_ = sc.c.Close()
			return
		}
	}
}

func (sc *streamConn) LocalAddr() netapi.Addr  { return sc.local }
func (sc *streamConn) RemoteAddr() netapi.Addr { return sc.remote }

// Send transmits data in order. Concurrent senders take turns: each
// holds the write lock across its write, so it returns once the kernel
// has taken its bytes, or fails once it has waited ioTimeout for them.
// A write error is returned to the sender that hit it and latched for
// every later one.
func (sc *streamConn) Send(data []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.wparked.Load() {
		return fmt.Errorf("realnet: send on a parked connection")
	}
	if sc.werr != nil {
		return fmt.Errorf("realnet: %w", sc.werr)
	}
	netapi.CountStreamFlush()
	err := sc.c.SetWriteDeadline(time.Now().Add(ioTimeout))
	if err == nil {
		_, err = sc.c.Write(data)
	}
	if err != nil {
		sc.werr = err
		return fmt.Errorf("realnet: %w", err)
	}
	return nil
}

func (sc *streamConn) Close() error {
	sc.rt.stateMu.Lock()
	st := sc.state
	sc.state = connClosed
	owner := sc.owner
	sc.owner = nil
	if st == connParked {
		sc.rt.removeParkedLocked(sc)
		sc.wparked.Store(false)
	}
	sc.rt.stateMu.Unlock()
	if st == connClosed {
		return nil
	}
	if owner != nil {
		owner.forget(sc)
	}
	return sc.c.Close()
}
