package main

import (
	"sync"
	"time"

	"starlink/internal/netapi"
)

// tap records, in the traced run only, when a legacy service was handed
// a message and when it sent one. It wraps the service's node, so the
// spans are taken from the benchmark's side of the netapi boundary and
// the service and the bridge run unmodified.
type tap struct {
	mu     sync.Mutex
	events []tapEvent
}

type tapEvent struct {
	at   time.Time
	send bool   // false: the service's handler was entered
	data []byte // a copy: receive buffers are leased and reused
}

func (t *tap) record(send bool, data []byte) {
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, tapEvent{at: now, send: send, data: append([]byte(nil), data...)})
	t.mu.Unlock()
}

func (t *tap) reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

func (t *tap) snapshot() []tapEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]tapEvent(nil), t.events...)
}

// tapNode is a service's view of its node with every endpoint tapped.
type tapNode struct {
	netapi.Node
	t *tap

	mu    sync.Mutex
	conns map[netapi.Conn]*tapConn // stable wrapper per accepted connection
}

func (n *tapNode) wrapPackets(h netapi.PacketHandler) netapi.PacketHandler {
	return func(pkt netapi.Packet) {
		n.t.record(false, pkt.Data)
		h(pkt)
	}
}

func (n *tapNode) OpenUDP(port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	s, err := n.Node.OpenUDP(port, n.wrapPackets(h))
	if err != nil {
		return nil, err
	}
	return &tapSock{UDPSocket: s, t: n.t}, nil
}

func (n *tapNode) JoinGroup(group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	s, err := n.Node.JoinGroup(group, n.wrapPackets(h))
	if err != nil {
		return nil, err
	}
	return &tapSock{UDPSocket: s, t: n.t}, nil
}

func (n *tapNode) ListenStream(port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	return n.Node.ListenStream(port, accept, func(c netapi.Conn, data []byte) {
		n.mu.Lock()
		tc := n.conns[c]
		if tc == nil {
			if n.conns == nil {
				n.conns = map[netapi.Conn]*tapConn{}
			}
			tc = &tapConn{Conn: c, t: n.t}
			n.conns[c] = tc
		}
		if data == nil {
			delete(n.conns, c)
		}
		n.mu.Unlock()
		if data != nil {
			n.t.record(false, data)
		}
		recv(tc, data)
	})
}

type tapSock struct {
	netapi.UDPSocket
	t *tap
}

func (s *tapSock) Send(to netapi.Addr, data []byte) error {
	s.t.record(true, data)
	return s.UDPSocket.Send(to, data)
}

type tapConn struct {
	netapi.Conn
	t *tap
}

func (c *tapConn) Send(data []byte) error {
	c.t.record(true, data)
	return c.Conn.Send(data)
}
