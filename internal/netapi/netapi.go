// Package netapi defines the network abstraction all Starlink
// components and legacy protocol stacks are written against. Two
// runtimes implement it: internal/simnet, a deterministic discrete-event
// simulator with a virtual clock (used by tests and the Fig. 12
// benchmark harness), and internal/realnet, real loopback sockets (used
// by the examples and the bridge daemon).
//
// # Concurrency contract: per-endpoint serial execution
//
// The model is event-driven: every inbound packet, stream chunk,
// accepted connection and timer fires a callback. The ordering
// guarantee is per endpoint, not global:
//
//   - Callbacks for one endpoint (a UDP socket, a stream connection, a
//     listener's accepts) never overlap and arrive in order, so
//     handler state keyed to one endpoint needs no locking.
//   - Callbacks for distinct endpoints MAY run in parallel. The
//     runtime does not impose a global serialisation policy on hosted
//     components (the infrastructure stays policy-free; the paper's
//     single Network Engine of Fig. 6 is realised per endpoint).
//
// Endpoints are grouped into serial dispatch domains. By default every
// endpoint a node opens — and every timer it schedules — shares the
// node's root domain, so a protocol component that owns its node (the
// legacy stacks under internal/protocols) keeps the exact
// single-threaded execution model it was written against, with zero
// locking. How an endpoint opens is one value, Mode: thread-safe
// components that want cross-endpoint parallelism on one host (the
// Automata Engine, the provisioning dispatcher) open through Detach(n),
// a view whose mode gives every endpoint a private domain, and
// Gated(n, g) adds a flow gate their read loops honor. Everything a
// node can do is a method of Node — there is no optional interface to
// discover — so a struct{ Node } wrapper keeps every capability.
//
// # Buffer ownership
//
// Inbound datagram bytes are delivered in leased pooled buffers where
// the runtime leases (realnet; simnet with leased delivery on):
// Packet.Data is valid for the duration of the callback, and a handler
// that needs the bytes longer takes the lease with Packet.TakeLease and
// releases it exactly once (see Buffer). When Packet.TakeLease returns
// nil the data is heap-owned and immutable; consumers may retain the
// slice without copying. Stream chunks are views valid for the
// callback; the netengine framer copies each complete frame into a
// lease of its own.
package netapi

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Addr is a network endpoint. IP is a dotted-quad string; multicast
// groups use their group address (e.g. 239.255.255.253).
type Addr struct {
	IP   string
	Port int
}

// String renders "ip:port". One allocation (the returned string): the
// scratch buffer is stack-sized for every dotted-quad address.
//
//starlink:hotpath
func (a Addr) String() string {
	var buf [64]byte
	b := buf[:0]
	if len(a.IP) > len(buf)-21 {
		b = make([]byte, 0, len(a.IP)+21)
	}
	b = append(b, a.IP...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(a.Port), 10)
	return string(b)
}

// ParseAddr parses an "ip:port" endpoint as rendered by Addr.String.
func ParseAddr(s string) (Addr, error) {
	i := strings.LastIndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return Addr{}, fmt.Errorf("netapi: address %q is not ip:port", s)
	}
	port, err := strconv.Atoi(s[i+1:])
	if err != nil || port < 0 || port > 65535 {
		return Addr{}, fmt.Errorf("netapi: address %q has invalid port", s)
	}
	return Addr{IP: s[:i], Port: port}, nil
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.IP == "" && a.Port == 0 }

// IsMulticast reports whether the IP is in the IPv4 multicast range
// (224.0.0.0/4). Allocation-free: it runs on every datagram send.
//
//starlink:hotpath
func (a Addr) IsMulticast() bool {
	// Parse the leading decimal octet by hand; reject anything that is
	// not 1-3 digits followed by a dot.
	first := 0
	i := 0
	for ; i < len(a.IP) && i < 3; i++ {
		c := a.IP[i]
		if c < '0' || c > '9' {
			break
		}
		first = first*10 + int(c-'0')
	}
	if i == 0 || i >= len(a.IP) || a.IP[i] != '.' {
		return false
	}
	return first >= 224 && first <= 239
}

// Packet is one received datagram.
type Packet struct {
	From Addr
	To   Addr
	Data []byte
	// Buf is the leased buffer backing Data on runtimes with pooled
	// receive buffers; nil when the data is heap-owned and immutable.
	// Handlers take ownership through TakeLease, never directly.
	Buf *Buffer

	// Batch is the number of datagrams delivered by the same receive
	// syscall as this one: >1 when a batched receive (recvmmsg)
	// carried the packet, 1 on per-datagram reads, 0 when the runtime
	// does not track receive batching (simnet). Observability only —
	// it feeds the engine's batched-ingest counters; the lease and
	// ordering contracts are identical at every value.
	Batch int

	// leased points at lease-transfer state owned by the dispatching
	// read loop (see BindLeaseFlag); nil when Buf is nil.
	leased *bool
}

// BindLeaseFlag points the packet's lease-transfer signal at a flag
// owned by the dispatching read loop. Runtimes set it before invoking
// the handler; after the callback returns they read their own flag —
// not buffer state — to learn whether the lease was taken, so the
// signal cannot be perturbed by the buffer's next lease if the new
// owner releases it immediately (see the Buffer doc).
func (p *Packet) BindLeaseFlag(f *bool) { p.leased = f }

// TakeLease transfers ownership of the packet's backing buffer to the
// caller, who must Release it exactly once when done with Data. It
// must be called synchronously inside the handler callback (it records
// the transfer in the dispatching read loop's own state, which only
// the callback's goroutine may touch). A nil result means the data is
// heap-owned and immutable: the caller may keep the slice without
// copying, and there is nothing to release.
func (p Packet) TakeLease() *Buffer {
	if p.Buf == nil {
		return nil
	}
	if p.leased == nil {
		// A runtime that sets Buf but never bound a lease flag would
		// keep reusing a buffer the handler now owns — corruption with
		// no crash. Fail fast instead.
		panic("netapi: Packet.Buf set without BindLeaseFlag; the dispatching runtime must bind a lease flag before the callback")
	}
	*p.leased = true
	return p.Buf
}

// PacketHandler consumes inbound datagrams. Handlers for one socket
// run serially; they must not block.
type PacketHandler func(pkt Packet)

// UDPSocket is a bound datagram socket.
type UDPSocket interface {
	// LocalAddr returns the bound address.
	LocalAddr() Addr
	// Send transmits a datagram. A multicast destination fans out to
	// all group members; a unicast destination delivers to the bound
	// socket at that address. Safe to call from any goroutine. data may
	// be reused once Send returns.
	Send(to Addr, data []byte) error
	// Close releases the socket. Closing twice is a no-op.
	Close() error
}

// Conn is a stream (TCP-like) connection. Data arrives through the
// StreamHandler registered at dial/listen time; the stream preserves
// order and loses nothing, but chunk boundaries are not meaningful —
// consumers must frame (parser.Framer).
type Conn interface {
	LocalAddr() Addr
	RemoteAddr() Addr
	// Send transmits bytes in order. Safe to call from any goroutine;
	// concurrent sends are coalesced, never interleaved mid-call. data
	// may be reused once Send returns, also when the send was queued
	// behind another.
	Send(data []byte) error
	Close() error
}

// ConnHandler is invoked for each accepted inbound connection.
type ConnHandler func(conn Conn)

// StreamHandler consumes inbound stream bytes for a connection. A nil
// data slice signals the peer closed the connection. Chunks for one
// connection are delivered serially and in order.
type StreamHandler func(conn Conn, data []byte)

// TimerID numbers the callbacks a node's After scheduled.
type TimerID uint64

// Timer is a reusable one-shot timer whose callback runs where After's
// do: on the node's root dispatch domain. Reset arms it to fire once
// after d, replacing the arm before; Stop disarms it. A fire of an arm
// that a later Reset or Stop replaced never runs the callback, even if
// it was already on its way. Both are safe from any goroutine, the
// callback included, and neither allocates.
type Timer interface {
	Reset(d time.Duration)
	Stop()
}

// Mode is how an endpoint opens: which serial dispatch domain its
// callbacks run on and whether its read loop honors a flow gate. The
// zero Mode is a node's own: the root domain, ungated.
type Mode struct {
	// Detached gives the endpoint a private dispatch domain: its
	// callbacks stay ordered, but nothing serialises them against the
	// node's other endpoints or timers. Only components that are
	// themselves thread-safe open detached; single-threaded protocol
	// stacks keep the root domain.
	Detached bool
	// Gate, when non-nil, pauses the endpoint's ingress while blocked:
	// realnet read loops park (releasing their leased buffers first),
	// simnet defers deliveries, and both resume in order when the gate
	// reopens. Dialed connections are egress and never gated.
	Gate *FlowGate
}

// Node is one host's view of the network, and the whole contract a
// runtime implements: nothing a node can do lives outside it.
type Node interface {
	// IP returns the node's address.
	IP() string
	// Mode is the mode the four plain openers below open in: the zero
	// Mode for a runtime's node, the view's for Detach / Gated views.
	Mode() Mode
	// OpenUDP binds a datagram socket. Port 0 picks an ephemeral port.
	OpenUDP(port int, h PacketHandler) (UDPSocket, error)
	// JoinGroup binds a socket that receives datagrams addressed to
	// the multicast group, and can send/receive unicast as well.
	JoinGroup(group Addr, h PacketHandler) (UDPSocket, error)
	// ListenStream accepts inbound stream connections on a port; every
	// accepted connection inherits the listener's mode.
	ListenStream(port int, accept ConnHandler, recv StreamHandler) (Closer, error)
	// DialStream opens a stream connection to a listener.
	DialStream(to Addr, recv StreamHandler) (Conn, error)

	// OpenUDPIn, JoinGroupIn, ListenStreamIn and DialStreamIn are the
	// same four openers with the mode spelled out — the runtime's one
	// primitive. The plain forms are OpenXIn(Mode(), …); a wrapper that
	// intercepts opens overrides these to see every mode.
	OpenUDPIn(m Mode, port int, h PacketHandler) (UDPSocket, error)
	JoinGroupIn(m Mode, group Addr, h PacketHandler) (UDPSocket, error)
	ListenStreamIn(m Mode, port int, accept ConnHandler, recv StreamHandler) (Closer, error)
	DialStreamIn(m Mode, to Addr, recv StreamHandler) (Conn, error)

	// Now returns the runtime's current time (virtual under simnet).
	Now() time.Time
	// After schedules fn after d. The callback runs on the node's root
	// dispatch domain: serialised with the node's undetached endpoint
	// callbacks and its other timers.
	After(d time.Duration, fn func()) TimerID
	// NewTimer returns a stopped Timer running fn: the form for a
	// callback that is armed again and again, or must be disarmable.
	NewTimer(fn func()) Timer

	// WorkAdd and WorkDone bracket work handed off the dispatching
	// callback to another goroutine (the Automata Engine parses on its
	// ingest workers): WorkAdd before the hand-off, WorkDone when the
	// processing — every follow-up Send/After included — has finished.
	// The runtime's event loop waits for the count to reach zero before
	// it pops the next event or evaluates a RunUntil condition, so a
	// virtual clock never runs ahead of work that will schedule events,
	// and state the workers wrote is safe to read after RunUntil.
	WorkAdd()
	WorkDone()

	// ParkConn hands a healthy connection dialed on this node to the
	// runtime's dial-reuse pool, to serve a later detached DialStream to
	// the same address, instead of closing it. False — the connection was
	// not dialed here or not detached (a pooled connection keeps the
	// private domain it was dialed with; a root domain must never pass to
	// another node's caller), is closed, the pool is full, or the runtime
	// keeps no pool (simnet) — means the caller closes it. Park only at a
	// clean frame boundary: bytes arriving while parked evict the
	// connection, but a partial frame already consumed would
	// desynchronise the next user.
	ParkConn(c Conn) bool

	// Close releases the node: every socket and listener it opened, in
	// any mode and through any view, is closed, and runtimes that
	// register nodes by address free the address for reuse. Closing twice
	// is a no-op. Deployment owners (a deployed engine, the provisioning
	// dispatcher) close their node on teardown and on every
	// failed-deploy path, so an aborted deploy never leaks endpoints. The
	// one exception is a connection parked with ParkConn: parking
	// transfers ownership to the runtime (bounded per destination).
	Close() error
}

// Closer releases a listener or other bound resource.
type Closer interface {
	Close() error
}

// view is a node whose plain openers open in a mode other than the
// node's own — the one node-view type; runtimes define none. It shares
// the node's identity and resources: Close on either closes everything.
type view struct {
	Node
	mode Mode
}

func (v *view) Mode() Mode { return v.mode }

func (v *view) OpenUDP(port int, h PacketHandler) (UDPSocket, error) {
	return v.Node.OpenUDPIn(v.mode, port, h)
}

func (v *view) JoinGroup(group Addr, h PacketHandler) (UDPSocket, error) {
	return v.Node.JoinGroupIn(v.mode, group, h)
}

func (v *view) ListenStream(port int, accept ConnHandler, recv StreamHandler) (Closer, error) {
	return v.Node.ListenStreamIn(v.mode, port, accept, recv)
}

func (v *view) DialStream(to Addr, recv StreamHandler) (Conn, error) {
	return v.Node.DialStreamIn(v.mode, to, recv)
}

// Detach returns a view of n whose endpoints each get a private serial
// dispatch domain; n's gate, if it has one, is kept.
func Detach(n Node) Node {
	m := n.Mode()
	if m.Detached {
		return n
	}
	m.Detached = true
	return &view{Node: n, mode: m}
}

// Gated returns a view of n whose ingress endpoints honor the flow gate
// g (replacing the one n had), keeping n's detachment; a nil g is n.
func Gated(n Node, g *FlowGate) Node {
	if g == nil {
		return n
	}
	m := n.Mode()
	m.Gate = g
	return &view{Node: n, mode: m}
}

// Runtime creates nodes and drives the event loop.
type Runtime interface {
	// NewNode creates a host with the given IP.
	NewNode(ip string) (Node, error)
	// RunUntil drives the runtime until cond() holds or the timeout
	// (in runtime time) elapses; it returns an error on timeout. cond
	// is evaluated while every node's root dispatch domain is quiet,
	// so state written by undetached callbacks is safe to read; state
	// owned by detached endpoints must be read through the owning
	// component's own synchronisation (e.g. Engine.Counts).
	RunUntil(cond func() bool, timeout time.Duration) error
	// Run drives the runtime for d (virtual or wall-clock time).
	Run(d time.Duration)
}
