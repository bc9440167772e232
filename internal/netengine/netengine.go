// Package netengine implements Starlink's Network Engine (paper Fig. 6):
// it realises the low-level network semantics captured by automaton
// colors. Given a color — transport protocol, port, unicast/multicast,
// sync/async mode, group — it opens the right kind of endpoint:
//
//   - Listen binds the endpoints for server-role (entry) states:
//     multicast group membership, plain UDP port, or a TCP listener
//     with MDL-driven framing;
//   - NewRequester opens the client-role channel used when the bridge
//     itself issues requests: an ephemeral UDP socket (multicast or
//     unicast) or a TCP connection to a destination supplied by a
//     setHost λ action.
//
// Every inbound payload is delivered with a Source handle that Reply
// can use to answer the exact peer — the mechanism behind the paper's
// transparent replies to legacy clients — and a routing key combining
// the endpoint's color with the peer address, which the concurrent
// Automata Engine uses to shard sessions.
//
// Concurrency: the engine opens its endpoints on a detached node view
// (netapi.Detach), so distinct endpoints dispatch in parallel while
// callbacks for one endpoint stay serial — framing state is owned per
// endpoint and needs no locking on the delivery path. Reply/Send may
// be called from any goroutine (the engine replies from its ingest
// workers).
//
// Buffer ownership: every payload is handed to the Handler with the
// leased buffer backing it — the receive buffer of a datagram, and for a
// stream the lease its frame was copied into, the one copy a framed
// payload gets. The handler owns the lease and must Release it exactly
// once.
package netengine

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/netapi"
	"starlink/internal/parser"
)

// Source identifies where an inbound payload came from, with enough
// context to reply and to route the payload to a session.
type Source struct {
	// Addr is the peer's address.
	Addr netapi.Addr
	// Batch is the receive-batch size the payload arrived in
	// (netapi.Packet.Batch): >1 when a batched receive syscall carried
	// it, 1 for per-datagram reads, 0 for streams and untracked
	// runtimes. Feeds the engine's batched-ingest counters.
	Batch int
	// color identifies the color the payload arrived on (colorID).
	color colorID
	// sock is the UDP socket the payload arrived on (nil for streams).
	sock netapi.UDPSocket
	// conn is the stream connection (nil for datagrams).
	conn netapi.Conn
}

// colorID is how a routing key carries a color: digest, the color's
// 64-bit FNV-1a digest (automata.Color.Hash64), stands for it — colors
// of one deployment do not share one — and seed is the 32-bit FNV-1a
// state after its Key and "|", from which RoutingKey's hash goes on.
type colorID struct {
	digest uint64
	seed   uint32
}

// colorOf runs both FNV-1a hashes over the color's Key without
// allocating: a session opens requesters, and so colors, as it goes.
func colorOf(c automata.Color) colorID {
	d, h := uint64(14695981039346656037), uint32(2166136261)
	for _, b := range []byte(c.Key()) {
		d = (d ^ uint64(b)) * 1099511628211
		h = (h ^ uint32(b)) * 16777619
	}
	return colorID{digest: d, seed: (h ^ '|') * 16777619}
}

// RoutingKey identifies the (color, peer) pair a payload belongs to —
// the session-table key of the concurrent engine: payloads from the
// same legacy client socket on the same colored endpoint always map to
// the same key. It is a comparable value, built without allocating.
type RoutingKey struct {
	color colorID
	hash  uint32
	port  int
	ip    string
}

// RoutingKey returns the key of the payload's color and peer.
func (s Source) RoutingKey() RoutingKey {
	var buf [64]byte // every dotted-quad "ip:port" fits
	h := s.color.seed
	for _, c := range strconv.AppendInt(append(append(buf[:0], s.Addr.IP...), ':'), int64(s.Addr.Port), 10) {
		h = (h ^ uint32(c)) * 16777619
	}
	return RoutingKey{color: s.color, hash: h, port: s.Addr.Port, ip: s.Addr.IP}
}

// Hash is FNV-1a (32-bit) over the key's text, the color's Key, "|" and
// the peer's "ip:port": what spreads keys over workers and shards.
func (k RoutingKey) Hash() uint32 { return k.hash }

// String renders the key as the color's digest and the peer address.
func (k RoutingKey) String() string {
	return fmt.Sprintf("%016x|%s", k.color.digest, netapi.Addr{IP: k.ip, Port: k.port})
}

// IsStream reports whether the payload arrived on a stream connection.
// A connected peer has already committed to a session-oriented
// exchange, which the ingest lane classifier weighs above datagram
// chatter of unknown intent.
func (s Source) IsStream() bool { return s.conn != nil }

// Reply sends data back to the source peer: unicast for datagrams, on
// the same connection for streams. data may be reused once Reply
// returns: both runtimes write or copy it before that.
func (s Source) Reply(data []byte) error {
	switch {
	case s.conn != nil:
		return s.conn.Send(data)
	case s.sock != nil:
		return s.sock.Send(s.Addr, data)
	default:
		return fmt.Errorf("netengine: reply to unknown source")
	}
}

// Handler consumes inbound payloads (whole datagrams, or framed
// messages on streams). lease is the pooled buffer backing data: the
// handler owns it and must Release it exactly once when done with data.
// Handlers for one endpoint run serially; distinct endpoints may
// invoke their handlers in parallel.
type Handler func(data []byte, src Source, lease *netapi.Buffer)

// splitFrames frames a stream chunk behind the partial frame buffered
// in *buf and appends each complete frame to frames as a leased copy,
// which the caller hands on with its lease. With nothing buffered it
// frames straight from data, and only a trailing partial frame is copied
// into *buf, which keeps its capacity. A frame longer than
// netapi.BufferSize — no lease could hold it — or an unframeable
// remainder is a framing error, so *buf never grows past that size: it
// is emptied and ok is false; frames completed before the error are
// still returned. Where the next frame starts is then unknown, so
// callers frame nothing more from that connection. Callers hold their
// buffer lock and deliver the returned frames after releasing it.
func splitFrames(framer *parser.Framer, buf *[]byte, data []byte, frames []*netapi.Buffer) (_ []*netapi.Buffer, ok bool) {
	for len(data) > 0 {
		src := data
		if len(*buf) > 0 {
			k := min(len(data), netapi.BufferSize-len(*buf))
			*buf = appendBounded(*buf, data[:k])
			src, data = *buf, data[k:]
		} else {
			data = nil
		}
		for {
			n, err := framer.Frame(src)
			if err != nil || n > netapi.BufferSize {
				*buf = (*buf)[:0]
				return frames, false
			}
			if n == 0 {
				break
			}
			lease := netapi.NewBuffer()
			lease.SetFilled(copy(lease.Backing(), src[:n]))
			frames = append(frames, lease)
			src = src[n:]
		}
		if len(src) >= netapi.BufferSize {
			*buf = (*buf)[:0]
			return frames, false
		}
		*buf = appendBounded((*buf)[:0], src)
	}
	return frames, true
}

// appendBounded is append for an accumulation buffer: it grows dst to
// at most netapi.BufferSize, which callers never ask it to exceed.
func appendBounded(dst, src []byte) []byte {
	if n := len(dst) + len(src); n > cap(dst) {
		dst = append(make([]byte, 0, min(max(2*cap(dst), n), netapi.BufferSize)), dst...)
	}
	return append(dst, src...)
}

// Engine opens colored endpoints on one node (the bridge host).
type Engine struct {
	base    netapi.Node // the node as handed in (identity, ownership)
	node    netapi.Node // detached view used to open requester endpoints
	ingress netapi.Node // detached (and optionally gated) view for entry listeners
	// framing counts the stream connections dropped because where their
	// next frame starts was lost: a frame longer than netapi.BufferSize,
	// or bytes the framer refuses.
	framing atomic.Int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithGate puts every entry listener the engine opens behind the flow
// gate (netapi.Gated): while the gate is blocked — the ingest
// queue downstream crossed its high watermark — the listeners' read
// loops pause instead of piling payloads onto the queue. Requester
// endpoints are never gated: responses to the bridge's own in-flight
// requests must keep flowing for sessions to finish and drain the
// backlog that caused the pause.
func WithGate(g *netapi.FlowGate) Option {
	return func(e *Engine) { e.ingress = netapi.Gated(e.node, g) }
}

// New creates an engine on the node. The engine's endpoints are opened
// through a detached view of the node, built here once: the Automata
// Engine and the provisioning dispatcher are thread-safe, so
// serialising their entry listeners against each other would only
// re-impose the global dispatcher bottleneck this layer retired.
func New(node netapi.Node, opts ...Option) *Engine {
	e := &Engine{base: node, node: netapi.Detach(node)}
	e.ingress = e.node
	for _, o := range opts {
		o(e)
	}
	return e
}

// Node returns the bridge host node.
func (e *Engine) Node() netapi.Node { return e.base }

// FramingDrops returns how many stream connections, listened or
// requested, the engine has dropped on a framing error.
func (e *Engine) FramingDrops() int { return int(e.framing.Load()) }

// ColorScheme extracts the transport decisions from a color.
type ColorScheme struct {
	Transport string // "udp" or "tcp"
	Port      int
	Multicast bool
	Group     string
	// Convergence is how long a requester-side receive collects
	// responses before proceeding (the SLP multicast convergence
	// window); zero means advance on first response.
	Convergence time.Duration
	// TxID names the header field of a client-role color's request that
	// the peer echoes in its reply ("" when the protocol has none): the
	// model's assertion that lets a requester socket outlive a session.
	TxID string
}

// SchemeOf interprets a color's attributes.
func SchemeOf(c automata.Color) (ColorScheme, error) {
	var s ColorScheme
	s.Transport, _ = c.Get(automata.AttrTransport)
	if s.Transport == "" {
		s.Transport = "udp"
	}
	if s.Transport != "udp" && s.Transport != "tcp" {
		return s, fmt.Errorf("netengine: unsupported transport %q", s.Transport)
	}
	s.Port, _ = c.GetInt(automata.AttrPort)
	if mc, _ := c.Get(automata.AttrMulticast); mc == "yes" {
		s.Multicast = true
		g, ok := c.Get(automata.AttrGroup)
		if !ok {
			return s, fmt.Errorf("netengine: multicast color without group: %s", c)
		}
		s.Group = g
	}
	if ms, ok := c.GetInt("convergence"); ok {
		s.Convergence = time.Duration(ms) * time.Millisecond
	}
	s.TxID, _ = c.Get(automata.AttrTxID)
	return s, nil
}

// Listen opens the entry endpoint for a server-role color. framer may
// be nil for datagram transports.
func (e *Engine) Listen(c automata.Color, framer *parser.Framer, h Handler) (netapi.Closer, error) {
	scheme, err := SchemeOf(c)
	if err != nil {
		return nil, err
	}
	color := colorOf(c)
	switch {
	case scheme.Transport == "udp" && scheme.Multicast:
		group := netapi.Addr{IP: scheme.Group, Port: scheme.Port}
		// The handler needs the socket it is registered on (to reply),
		// but the socket only exists once JoinGroup returns — and under
		// per-endpoint dispatch a datagram may race the assignment. An
		// atomic cell closes the data race; loadSock waits out the
		// nanoseconds-wide bind window so even the very first datagram
		// gets a Source that can Reply.
		cell := new(atomic.Value)
		sock, err := e.ingress.JoinGroup(group, func(pkt netapi.Packet) {
			h(pkt.Data, Source{Addr: pkt.From, Batch: pkt.Batch, color: color, sock: loadSock(cell)}, pkt.TakeLease())
		})
		if err != nil {
			return nil, fmt.Errorf("netengine: listen %s: %w", c, err)
		}
		cell.Store(sock)
		return sock, nil
	case scheme.Transport == "udp":
		cell := new(atomic.Value)
		sock, err := e.ingress.OpenUDP(scheme.Port, func(pkt netapi.Packet) {
			h(pkt.Data, Source{Addr: pkt.From, Batch: pkt.Batch, color: color, sock: loadSock(cell)}, pkt.TakeLease())
		})
		if err != nil {
			return nil, fmt.Errorf("netengine: listen %s: %w", c, err)
		}
		cell.Store(sock)
		return sock, nil
	default: // tcp
		if framer == nil {
			return nil, fmt.Errorf("netengine: tcp listen %s needs a framer", c)
		}
		// Framing state is owned per connection: chunks for one
		// connection arrive serially, so the accumulation buffer needs
		// no lock of its own; the sync.Map only mediates the
		// conn→state lookup across parallel connections.
		var buffers sync.Map // netapi.Conn -> *connFraming
		l, err := e.ingress.ListenStream(scheme.Port, nil, func(conn netapi.Conn, data []byte) {
			if data == nil {
				buffers.Delete(conn)
				return
			}
			v, ok := buffers.Load(conn)
			if !ok {
				// Only a connection's first chunk allocates its state;
				// LoadOrStore unconditionally would allocate per chunk.
				v, _ = buffers.LoadOrStore(conn, &connFraming{})
			}
			st := v.(*connFraming)
			var fb [4]*netapi.Buffer
			frames, ok := splitFrames(framer, &st.buf, data, fb[:0])
			if !ok {
				// Where the next frame starts is lost: drop the state
				// and the connection.
				buffers.Delete(conn)
				e.framing.Add(1)
				_ = conn.Close()
			}
			for _, f := range frames {
				h(f.Bytes(), Source{Addr: conn.RemoteAddr(), color: color, conn: conn}, f)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("netengine: listen %s: %w", c, err)
		}
		return l, nil
	}
}

// connFraming is one stream connection's frame-accumulation state,
// touched only by that connection's serial delivery callbacks.
type connFraming struct {
	buf []byte
}

// loadSock resolves the socket a handler is running on. The cell is
// stored immediately after the successful open returns; a datagram
// dispatched inside that window (possible under per-endpoint parallel
// dispatch) briefly yields until the store lands, so Reply always has
// its socket. An open that fails never runs the handler, so the wait
// cannot be unbounded.
func loadSock(cell *atomic.Value) netapi.UDPSocket {
	for {
		if s, ok := cell.Load().(netapi.UDPSocket); ok {
			return s
		}
		runtime.Gosched()
	}
}

// Requester is a client-role channel: the bridge's own outgoing
// request path for one protocol, held by one session at a time (the
// engine keeps a datagram one open across sessions when its color
// declares a txid).
type Requester struct {
	dest netapi.Addr
	node netapi.Node
	sock netapi.UDPSocket
	// conn is a stream channel's connection, nil once closed: written
	// under frMu, so delivery can tell the connection the channel holds
	// now from one it closed. recv, the channel's stream handler, is
	// built once, and Redial hands it to each connection it opens.
	conn netapi.Conn
	recv netapi.StreamHandler

	// frMu guards the stream framing state: delivery mutates it from
	// the connection's serial domain, while Close inspects it from the
	// session's ingest worker to decide whether the connection is at a
	// clean frame boundary and can be parked for reuse. frLost records
	// a framing error: nothing more is framed, and the connection is
	// closed, never parked. frOut is the requests sent less the frames
	// read back: above zero, an answer is still on its way, and would
	// reach whoever reused the connection next (an int32 beside frLost
	// keeps the struct in its allocation size class).
	frMu   sync.Mutex
	frBuf  []byte
	frLost bool
	frOut  int32
}

// NewRequester opens a requester channel for the color. dest overrides
// the destination (required for TCP, where the address comes from a
// setHost λ action; optional for UDP where the color's group/port is
// the default destination).
func (e *Engine) NewRequester(c automata.Color, dest netapi.Addr, framer *parser.Framer, h Handler) (*Requester, error) {
	scheme, err := SchemeOf(c)
	if err != nil {
		return nil, err
	}
	r := &Requester{node: e.node}
	color := colorOf(c)
	switch scheme.Transport {
	case "udp":
		switch {
		case !dest.IsZero():
			r.dest = dest
		case scheme.Multicast:
			r.dest = netapi.Addr{IP: scheme.Group, Port: scheme.Port}
		default:
			return nil, fmt.Errorf("netengine: requester %s needs a destination", c)
		}
		cell := new(atomic.Value)
		sock, err := e.node.OpenUDP(0, func(pkt netapi.Packet) {
			h(pkt.Data, Source{Addr: pkt.From, Batch: pkt.Batch, color: color, sock: loadSock(cell)}, pkt.TakeLease())
		})
		if err != nil {
			return nil, fmt.Errorf("netengine: requester %s: %w", c, err)
		}
		cell.Store(sock)
		r.sock = sock
		return r, nil
	default: // tcp
		if dest.IsZero() {
			return nil, fmt.Errorf("netengine: tcp requester %s needs a setHost destination", c)
		}
		if framer == nil {
			return nil, fmt.Errorf("netengine: tcp requester %s needs a framer", c)
		}
		// Once the channel holds a connection, a chunk of any other — a
		// late one of a connection it closed before it redialled — is
		// dropped. One arriving while it holds none is framed, and the
		// frames answer no session.
		r.recv = func(conn netapi.Conn, data []byte) {
			if data == nil {
				return
			}
			var fb [4]*netapi.Buffer
			r.frMu.Lock()
			if r.frLost || r.conn != nil && conn != r.conn {
				r.frMu.Unlock()
				return
			}
			frames, ok := splitFrames(framer, &r.frBuf, data, fb[:0])
			r.frLost = !ok
			r.frOut -= int32(len(frames))
			r.frMu.Unlock()
			if !ok {
				e.framing.Add(1)
				_ = conn.Close()
			}
			for _, f := range frames {
				h(f.Bytes(), Source{Addr: conn.RemoteAddr(), color: color, conn: conn}, f)
			}
		}
		if err := r.Redial(dest); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Stream reports whether the channel is a stream one, which Redial
// can reopen once closed.
func (r *Requester) Stream() bool { return r.recv != nil }

// Redial reopens a closed stream channel on a connection to dest — a
// parked one when the runtime holds one, else a new dial — with the
// channel's framing state reset and its handler kept.
func (r *Requester) Redial(dest netapi.Addr) error {
	if dest.IsZero() {
		return fmt.Errorf("netengine: tcp requester needs a setHost destination")
	}
	conn, err := r.node.DialStream(dest, r.recv)
	if err != nil {
		return fmt.Errorf("netengine: requester dial %s: %w", dest, err)
	}
	r.frMu.Lock()
	r.dest, r.conn = dest, conn
	r.frBuf, r.frLost, r.frOut = nil, false, 0
	r.frMu.Unlock()
	return nil
}

// Send transmits a request on the channel. data may be reused once Send
// returns.
func (r *Requester) Send(data []byte) error {
	if r.conn != nil {
		r.frMu.Lock()
		r.frOut++
		r.frMu.Unlock()
		return r.conn.Send(data)
	}
	return r.sock.Send(r.dest, data)
}

// Heard reports whether src is a payload that arrived on this channel's
// own socket or connection. A session holds it against every requester
// payload it is handed, so one read off a socket some other session now
// borrows — or off one already closed — is never taken for its own.
func (r *Requester) Heard(src Source) bool {
	if r.conn != nil {
		return src.conn == r.conn
	}
	return src.sock == r.sock
}

// EgressTable is a concurrent set of the datagram sockets a bridge
// deployment currently sends requests from. A multi-case dispatcher
// consults it on every inbound entry payload: a datagram whose source
// is one of our own requester sockets is the bridge hearing its own
// multicast request, and bridging it again through an
// opposite-direction case would loop traffic forever.
//
// Only datagram requesters are entered and only datagram sources are
// looked up: the table is keyed by IP and port, UDP and TCP ports are
// separate spaces, and a stream requester's connection is never heard
// by a listener of ours — a client's TCP source port may well equal a
// live requester's UDP port.
//
// An entry is one bit of a per-IP port set (a bridge's requesters all
// bind its one host IP), so a parked session costs the table no heap. A
// requester leaves before its socket closes: no refcount is needed.
type EgressTable struct {
	mu    sync.RWMutex
	ports map[string]*portSet // by local IP
}

// portSet holds one bit per UDP port.
type portSet [65536 / 64]uint64

// NewEgressTable returns an empty table.
func NewEgressTable() *EgressTable {
	return &EgressTable{ports: map[string]*portSet{}}
}

// Add registers a datagram requester's local address.
func (t *EgressTable) Add(r *Requester) {
	t.set(r, true)
}

// Remove unregisters the requester's address.
func (t *EgressTable) Remove(r *Requester) {
	t.set(r, false)
}

func (t *EgressTable) set(r *Requester, on bool) {
	if r.sock == nil {
		return
	}
	a := r.sock.LocalAddr()
	port := uint16(a.Port)
	word, bit := port/64, uint64(1)<<(port%64)
	t.mu.Lock()
	ps := t.ports[a.IP]
	if ps == nil {
		ps = new(portSet)
		t.ports[a.IP] = ps
	}
	if on {
		ps[word] |= bit
	} else {
		ps[word] &^= bit
	}
	t.mu.Unlock()
}

// Contains reports whether the payload's source is one of the
// registered requester sockets.
func (t *EgressTable) Contains(src Source) bool {
	if src.IsStream() {
		return false
	}
	port := uint16(src.Addr.Port)
	t.mu.RLock()
	ps := t.ports[src.Addr.IP]
	ok := ps != nil && ps[port/64]&(1<<(port%64)) != 0
	t.mu.RUnlock()
	return ok
}

// Close releases the channel. A stream channel whose inbound side sits
// at a clean frame boundary, never lost framing and awaits no answer to
// a request it sent, is parked in the runtime's dial-reuse pool
// (Node.ParkConn) instead of torn down, so the next session's requester
// to the same destination skips the TCP handshake — the client-side
// connection reuse of the NewRequester path.
func (r *Requester) Close() error {
	if r.conn != nil {
		conn := r.conn
		r.frMu.Lock()
		r.conn = nil
		clean := len(r.frBuf) == 0 && !r.frLost && r.frOut <= 0
		r.frBuf = nil
		r.frMu.Unlock()
		if clean && r.node.ParkConn(conn) {
			return nil
		}
		return conn.Close()
	}
	if r.sock != nil {
		return r.sock.Close()
	}
	return nil
}
