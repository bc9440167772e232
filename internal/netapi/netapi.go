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
// locking. Thread-safe components that want cross-endpoint parallelism
// on one host (the Automata Engine, the provisioning dispatcher) opt
// in through Detach: endpoints opened through a detached node view
// each get a private domain and dispatch concurrently.
//
// # Buffer ownership
//
// Inbound datagram bytes are delivered in leased pooled buffers where
// the runtime supports it (realnet): Packet.Data is valid for the
// duration of the callback, and a handler that needs the bytes longer
// takes the lease with Packet.TakeLease and releases it exactly once
// (see Buffer). When Packet.TakeLease returns nil the data is
// heap-owned and immutable (simnet deliveries, framed stream
// payloads); consumers may retain the slice without copying.
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
	// socket at that address. Safe to call from any goroutine.
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
	// concurrent sends are coalesced, never interleaved mid-call.
	Send(data []byte) error
	Close() error
}

// ConnHandler is invoked for each accepted inbound connection.
type ConnHandler func(conn Conn)

// StreamHandler consumes inbound stream bytes for a connection. A nil
// data slice signals the peer closed the connection. Chunks for one
// connection are delivered serially and in order.
type StreamHandler func(conn Conn, data []byte)

// TimerID identifies a scheduled callback for cancellation.
type TimerID uint64

// Node is one host's view of the network.
type Node interface {
	// IP returns the node's address.
	IP() string
	// OpenUDP binds a datagram socket. Port 0 picks an ephemeral port.
	OpenUDP(port int, h PacketHandler) (UDPSocket, error)
	// JoinGroup binds a socket that receives datagrams addressed to
	// the multicast group, and can send/receive unicast as well.
	JoinGroup(group Addr, h PacketHandler) (UDPSocket, error)
	// ListenStream accepts inbound stream connections on a port.
	ListenStream(port int, accept ConnHandler, recv StreamHandler) (Closer, error)
	// DialStream opens a stream connection to a listener.
	DialStream(to Addr, recv StreamHandler) (Conn, error)

	// Now returns the runtime's current time (virtual under simnet).
	Now() time.Time
	// After schedules fn after d. The callback runs on the node's root
	// dispatch domain: serialised with the node's undetached endpoint
	// callbacks and its other timers.
	After(d time.Duration, fn func()) TimerID
	// Cancel revokes a scheduled callback; unknown IDs are ignored.
	Cancel(id TimerID)

	// Close releases the node: every socket and listener it opened is
	// closed, and runtimes that register nodes by address free the
	// address for reuse. Closing twice is a no-op. Deployment owners
	// (a deployed engine, the provisioning dispatcher) close their node on
	// teardown and on every failed-deploy path, so an aborted deploy
	// never leaks endpoints. Endpoints opened through a detached view
	// of the node are owned — and closed — the same way. The one
	// exception is a dialed connection handed to the runtime's reuse
	// pool via ConnParker: parking transfers ownership to the runtime
	// (bounded per destination), so it no longer closes with the node.
	Close() error
}

// Closer releases a listener or other bound resource.
type Closer interface {
	Close() error
}

// EndpointDetacher is implemented by nodes whose runtime can dispatch
// distinct endpoints concurrently. DetachEndpoints returns a view of
// the node on which every subsequently opened endpoint gets a private
// serial dispatch domain: callbacks for that endpoint stay ordered,
// but nothing serialises them against the node's other endpoints or
// timers. Only components that are themselves thread-safe (the
// Automata Engine, the provisioning dispatcher) should detach;
// single-threaded protocol stacks must keep the default node-scoped
// domain. The view shares the node's identity and resources: Close on
// either closes everything.
type EndpointDetacher interface {
	DetachEndpoints() Node
}

// Detach returns a detached view of the node when the runtime supports
// per-endpoint parallel dispatch, and the node itself otherwise.
func Detach(n Node) Node {
	if d, ok := n.(EndpointDetacher); ok {
		return d.DetachEndpoints()
	}
	return n
}

// ConnParker is implemented by nodes whose runtime keeps a dial-side
// connection pool. ParkConn returns a healthy dialed connection to the
// runtime for reuse by a later DialStream to the same address instead
// of closing it; it reports false when the connection cannot be pooled
// (not dialed here, dialed undetached, already closed, or the pool is
// full), in which case the caller should Close it normally. The pool
// only serves detached dials: a reused connection keeps the private
// dispatch domain it was dialed with, so pooling an undetached
// connection — or handing one to an undetached caller — would entangle
// distinct nodes' serial execution; undetached DialStream always opens
// a fresh connection. Only park a connection
// whose inbound stream is at a clean frame boundary: bytes that arrive
// while parked evict the connection, but a partial frame already
// consumed would silently desynchronise the next user.
type ConnParker interface {
	ParkConn(c Conn) bool
}

// WorkTracker is optionally implemented by nodes of runtimes whose
// event loop must know about work handed off to other goroutines.
//
// The concurrent Automata Engine processes inbound payloads on its
// ingest workers instead of inside the dispatch callback.
// A runtime with a virtual clock (simnet) must therefore not advance
// time — nor let RunUntil conclude "no pending events" — while such
// work is still in flight, because the work will schedule new events
// when it completes. The contract:
//
//   - WorkAdd is called before a payload/timer is handed off the
//     dispatching callback; WorkDone when the resulting processing
//     finished (including every follow-up Send/After it performs).
//   - The runtime's event loop waits for the in-flight count to reach
//     zero before popping the next event and before evaluating a
//     RunUntil condition, which also establishes the happens-before
//     edge that makes engine state safe to read after RunUntil.
//
// Runtimes running on the wall clock (realnet) implement it so that
// RunUntil conditions observe quiesced state; pure wall-clock users
// may omit it, in which case callers fall back to no tracking.
type WorkTracker interface {
	WorkAdd()
	WorkDone()
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
