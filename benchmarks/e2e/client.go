package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
)

// The one logical service every workload looks up, in each protocol's
// spelling, and the URL each legacy service registers it under. The two
// URLs differ so a reply proves which service answered.
const (
	slpType     = "service:printer"
	upnpType    = "urn:printer"
	dnsName     = "printer.local"
	bonjourURL  = "service:printer://10.0.0.9:515"
	upnpURLBase = "http://10.0.0.7:5431/svc"

	devicePort     = 5433 // the UPnP device's description server (5431, the repo's usual, is starlinkd's demo device)
	bridgeHTTPPort = 8080 // the reverse-UPnP cases' http-server color
	altSLPPort     = 1427 // slp-to-upnp-alt's unicast entry

	// opDeadline turns a lost datagram into a failure instead of a stall.
	opDeadline = time.Second
	// getRetry is how long the control point waits for the description
	// before it dials again. About one GET in ten thousand is never
	// answered; the rate fits the dispatcher's egress table, which has no
	// transport in its key, dropping a GET whose TCP source port equals a
	// live requester's UDP port as the bridge's own traffic. A second
	// connection gets a new source port; the retry is counted
	// (client.get_retries) and its wait stays in the op's latency.
	getRetry = 50 * time.Millisecond
	// sourceSockets is the client's pool of source sockets. A session is
	// keyed by its source address, and a legacy client opens a fresh
	// socket per lookup; rotating a small pool oldest-first gives every
	// interaction a source whose previous session is long gone.
	sourceSockets = 8
)

type opKind uint8

const (
	opSLP       opKind = iota // multicast SLP lookup
	opSLPAlt                  // unicast SLP lookup on :1427 (slp-to-upnp-alt)
	opSSDP                    // M-SEARCH, then GET of the description the bridge advertises
	opMDNS                    // mDNS question
	opChatter                 // unsolicited multicast (SSDP NOTIFY / mDNS announcement)
	opMalformed               // undecodable datagram
	numOpKinds
)

var opKindNames = [numOpKinds]string{"slp", "slp_alt", "ssdp", "mdns", "chatter", "malformed"}

// expectsReply separates the interactions from the off-path traffic,
// which must produce neither a reply nor a session.
func (k opKind) expectsReply() bool { return k <= opMDNS }

// op is one generated operation.
type op struct {
	kind opKind
	id   int    // XID / DNS ID the reply must echo (SSDP carries none)
	want string // the one URL the reply must carry
	wire []byte
	to   netapi.Addr

	sent     time.Time // latency is taken from here
	fetching bool      // SSDP op: the bridge's SSDP response arrived, the description is being fetched
	finished atomic.Bool
}

// interaction is the traced run's record of one verified op.
type interaction struct {
	seq        int
	kind       opKind
	id         int
	start, end time.Time
}

// tally is what became of the ops sent.
type tally struct {
	verified  int
	timeouts  int
	wrong     int    // the right id, the wrong content
	stray     int    // datagrams that answer an off-path op: a failure
	duplicate int    // datagrams that answer an op already finished, or not this one: counted, ignored
	native    int    // answers from the legacy services themselves; expected, ignored
	retries   int    // description GETs sent again after getRetry of silence
	lastError string // the most recent failure, for the report
}

func (t tally) failed() int { return t.timeouts + t.wrong + t.stray }

func (t tally) problem() string {
	return fmt.Sprintf("%d timeouts, %d wrong replies, %d replies to off-path ops (%s)", t.timeouts, t.wrong, t.stray, t.lastError)
}

// clientSock is one source socket: at most one op outstanding.
type clientSock struct {
	c    *client
	udp  netapi.UDPSocket
	home chan *clientSock // the idle list this socket returns to

	mu      sync.Mutex
	cur     *op
	offPath bool        // the most recent op sent from here expected no reply
	conn    netapi.Conn // the SSDP op's description fetch
	buf     []byte      // its response so far
}

// client is the raw legacy client: it speaks the native codecs over
// netapi sockets and checks every reply.
type client struct {
	node           netapi.Node
	bridgeLocation string // LOCATION the bridge advertises in reverse-UPnP cases
	bridgeHTTP     netapi.Addr
	nativeLocation string // LOCATION of the real UPnP device, which also hears the client's M-SEARCH

	socks []*clientSock
	free  chan *clientSock // idle sockets, longest-idle first
	// point is the one UPnP control point, used by every SSDP op, so at
	// most one upnp-to-* session awaits its description GET at a time.
	// The engine routes a mid-program entry payload to any session of the
	// same peer host awaiting that message, and every loopback peer is
	// 127.0.0.1: two GETs in flight can both be routed to one session,
	// and the loser is dropped as ignored. One control point per host is
	// also simply what a host runs.
	point chan *clientSock
	done  chan struct{} // an op completed

	mu  sync.Mutex
	lat []int64 // per verified interaction, ns
	end []int64 // when each completed, ns since processStart
	tally
	trace  []interaction // nil unless traced
	traced bool
}

func newClient(node netapi.Node, bridgeIP, deviceIP string, traced bool) (*client, error) {
	c := &client{
		node:           netapi.Detach(node),
		bridgeLocation: fmt.Sprintf("http://%s:%d%s", bridgeIP, bridgeHTTPPort, upnp.DescriptionPath),
		bridgeHTTP:     netapi.Addr{IP: bridgeIP, Port: bridgeHTTPPort},
		nativeLocation: fmt.Sprintf("http://%s:%d%s", deviceIP, devicePort, upnp.DescriptionPath),
		free:           make(chan *clientSock, sourceSockets),
		point:          make(chan *clientSock, 1),
		done:           make(chan struct{}, 1),
		traced:         traced,
	}
	for i := 0; i <= sourceSockets; i++ {
		s := &clientSock{c: c, home: c.free}
		if i == sourceSockets {
			s.home = c.point
		}
		// The read loop may deliver before OpenUDP returns; handlers only
		// touch s.udp through sends made after this function returns.
		udp, err := c.node.OpenUDP(0, s.onPacket)
		if err != nil {
			return nil, fmt.Errorf("client socket: %w", err)
		}
		s.udp = udp
		c.socks = append(c.socks, s)
		s.home <- s
	}
	return c, nil
}

// reset clears the measurements between warm-up and the timed window
// and returns what became of the ops so far.
func (c *client) reset() tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.tally
	c.lat = c.lat[:0]
	c.end = c.end[:0]
	c.tally = tally{}
	c.trace = c.trace[:0]
	return before
}

// start transmits o from s. Reply-expecting ops hold the socket until
// they complete or expire; off-path ops release it at once, so anything
// that later arrives on it is counted as stray.
func (c *client) start(s *clientSock, o *op) error {
	offPath := !o.kind.expectsReply()
	s.mu.Lock()
	s.offPath = offPath
	if !offPath {
		s.cur = o
	}
	s.mu.Unlock()
	o.sent = time.Now()
	if err := s.udp.Send(o.to, o.wire); err != nil {
		return fmt.Errorf("send %s: %w", opKindNames[o.kind], err)
	}
	if offPath {
		o.finished.Store(true)
		s.home <- s
	}
	return nil
}

// release ends s's outstanding op. Caller holds s.mu.
func (s *clientSock) release() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
	s.buf = s.buf[:0]
	s.cur.finished.Store(true)
	s.cur = nil
	s.home <- s
	select {
	case s.c.done <- struct{}{}:
	default:
	}
}

// complete records a verified reply. Caller holds s.mu.
func (s *clientSock) complete(now time.Time) {
	o := s.cur
	c := s.c
	c.mu.Lock()
	c.lat = append(c.lat, int64(now.Sub(o.sent)))
	c.end = append(c.end, int64(now.Sub(processStart)))
	c.verified++
	if c.traced {
		c.trace = append(c.trace, interaction{seq: len(c.trace), kind: o.kind, id: o.id, start: o.sent, end: now})
	}
	c.mu.Unlock()
	s.release()
}

// notMine counts a datagram that does not answer the outstanding op — it
// does not decode in the op's protocol, or echoes another id: an earlier
// op's second answer — and keeps waiting. If the real reply never comes
// the op still fails, by its deadline. Caller holds s.mu.
func (s *clientSock) notMine() {
	s.c.mu.Lock()
	s.c.duplicate++
	s.c.mu.Unlock()
}

// reject records a reply that failed verification. Caller holds s.mu.
func (s *clientSock) reject(why string) {
	c := s.c
	c.mu.Lock()
	c.wrong++
	c.lastError = fmt.Sprintf("%s op id %d: %s", opKindNames[s.cur.kind], s.cur.id, why)
	c.mu.Unlock()
	s.release()
}

// expire fails the outstanding op: its deadline has passed.
func (c *client) expire() {
	for _, s := range c.socks {
		s.mu.Lock()
		if o := s.cur; o != nil {
			c.mu.Lock()
			c.timeouts++
			c.lastError = fmt.Sprintf("%s op id %d: no reply within %s", opKindNames[o.kind], o.id, opDeadline)
			c.mu.Unlock()
			s.release()
		}
		s.mu.Unlock()
	}
}

func (c *client) close() {
	for _, s := range c.socks {
		_ = s.udp.Close()
	}
}

// isNativeAnswer recognises the legacy services answering the client
// directly: on a shared multicast group the real UPnP device hears the
// client's M-SEARCH and the real Bonjour responder its question, exactly
// as they would on a LAN with a bridge attached.
func (c *client) isNativeAnswer(data []byte) bool {
	if bytes.HasPrefix(data, []byte("HTTP/1.1 ")) {
		m, err := ssdp.Parse(data)
		return err == nil && m.Headers["LOCATION"] == c.nativeLocation
	}
	m, err := dnssd.Parse(data)
	return err == nil && !m.IsQuery() && len(m.Answers) == 1 && m.Answers[0].RDATA == bonjourURL
}

func (s *clientSock) onPacket(pkt netapi.Packet) {
	now := time.Now()
	c := s.c
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.cur
	if (o == nil || o.kind == opSSDP || o.kind == opMDNS) && c.isNativeAnswer(pkt.Data) {
		c.mu.Lock()
		c.native++
		c.mu.Unlock()
		return
	}
	if o == nil {
		// Nothing is outstanding here. After an off-path op this is a
		// reply the bridge must never send; otherwise it answers an op
		// that already finished (a second reply, or one past its
		// deadline).
		c.mu.Lock()
		if s.offPath {
			c.stray++
			c.lastError = fmt.Sprintf("%d-byte reply from %s to an off-path op", len(pkt.Data), pkt.From)
		} else {
			c.duplicate++
		}
		c.mu.Unlock()
		return
	}
	switch o.kind {
	case opSLP, opSLPAlt:
		m, _ := slp.Parse(pkt.Data)
		r, ok := m.(*slp.SrvRply)
		switch {
		case !ok || r.XID != o.id:
			s.notMine()
		case r.ErrorCode != 0 || len(r.URLs) != 1 || r.URLs[0] != o.want:
			s.reject(fmt.Sprintf("error %d urls %q, want %q", r.ErrorCode, r.URLs, o.want))
		default:
			s.complete(now)
		}
	case opMDNS:
		m, err := dnssd.Parse(pkt.Data)
		switch {
		case err != nil || m.IsQuery() || m.ID != o.id:
			s.notMine()
		case len(m.Answers) != 1 || m.Answers[0].RDATA != o.want:
			s.reject(fmt.Sprintf("answers %+v, want %q", m.Answers, o.want))
		default:
			s.complete(now)
		}
	case opSSDP:
		m, err := ssdp.Parse(pkt.Data)
		switch {
		case err != nil || o.fetching:
			s.notMine()
		case !m.IsResponse() || m.Headers["ST"] != upnpType || m.Headers["LOCATION"] != c.bridgeLocation:
			s.reject(fmt.Sprintf("ssdp %s %v", m.Method, m.Headers))
		default:
			o.fetching = true
			s.fetchDescriptionLocked(o)
		}
	}
}

// fetchDescription is the control point's second step: GET the
// description document at the advertised LOCATION on a fresh
// connection, as httpx.Get does, and again on another if this one stays
// silent.
func (s *clientSock) fetchDescription(o *op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetchDescriptionLocked(o)
}

// fetchDescriptionLocked is fetchDescription for a caller holding s.mu.
func (s *clientSock) fetchDescriptionLocked(o *op) {
	if s.cur != o {
		return // finished or expired before the retry came due
	}
	if s.conn != nil {
		if len(s.buf) > 0 {
			return // the response is arriving
		}
		_ = s.conn.Close()
		s.c.mu.Lock()
		s.c.retries++
		s.c.mu.Unlock()
	}
	conn, err := s.c.node.DialStream(s.c.bridgeHTTP, s.onStream)
	if err != nil {
		s.reject(err.Error())
		return
	}
	s.conn = conn
	if err := conn.Send(httpx.MarshalRequest(upnp.DescriptionPath, s.c.bridgeHTTP.String())); err != nil {
		s.reject(err.Error())
		return
	}
	s.c.node.After(getRetry, func() { s.fetchDescription(o) })
}

func (s *clientSock) onStream(conn netapi.Conn, data []byte) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != conn || s.cur == nil {
		return // a fetch already finished or expired
	}
	if data == nil {
		s.reject("description connection closed before a response")
		return
	}
	s.buf = append(s.buf, data...)
	n, err := httpx.FrameLength(s.buf)
	if err != nil {
		s.reject(err.Error())
		return
	}
	if n == 0 {
		return
	}
	resp, err := httpx.ParseResponse(s.buf[:n])
	if err != nil {
		s.reject(err.Error())
		return
	}
	base, err := upnp.ExtractURLBase(resp.Body)
	switch {
	case resp.Status != 200:
		s.reject(fmt.Sprintf("HTTP status %d", resp.Status))
	case err != nil:
		s.reject(err.Error())
	case base != s.cur.want:
		s.reject(fmt.Sprintf("URLBase %q, want %q", base, s.cur.want))
	default:
		s.complete(now)
	}
}
