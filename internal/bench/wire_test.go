package bench

import (
	"context"
	"encoding/hex"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/provision"
	"starlink/internal/simnet"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire/*.golden")

// wireRecorder keeps, in order, every payload a bridge node sends.
type wireRecorder struct {
	mu    sync.Mutex
	sent  []string
	conns map[netapi.Conn]netapi.Conn
}

func (r *wireRecorder) add(data []byte) {
	r.mu.Lock()
	r.sent = append(r.sent, hex.EncodeToString(data))
	r.mu.Unlock()
}

// conn returns the recording wrapper of c: one per connection, so the
// bridge sees one identity for it on every callback.
func (r *wireRecorder) conn(c netapi.Conn) netapi.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.conns[c]
	if !ok {
		w = recConn{c, r}
		r.conns[c] = w
	}
	return w
}

// recRuntime hands out recording nodes; the legacy stacks create theirs
// on the simulator itself, so only the bridge's sends are recorded.
type recRuntime struct {
	*simnet.Net
	r *wireRecorder
}

func (rt recRuntime) NewNode(ip string) (netapi.Node, error) {
	n, err := rt.Net.NewNode(ip)
	if err != nil {
		return nil, err
	}
	return recNode{n, rt.r}, nil
}

// recNode is a struct{ Node } wrapper: it keeps every capability and
// wraps what its openers return.
type recNode struct {
	netapi.Node
	r *wireRecorder
}

func (n recNode) OpenUDP(port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	return n.OpenUDPIn(n.Mode(), port, h)
}

func (n recNode) JoinGroup(group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	return n.JoinGroupIn(n.Mode(), group, h)
}

func (n recNode) ListenStream(port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	return n.ListenStreamIn(n.Mode(), port, accept, recv)
}

func (n recNode) DialStream(to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	return n.DialStreamIn(n.Mode(), to, recv)
}

func (n recNode) OpenUDPIn(m netapi.Mode, port int, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	s, err := n.Node.OpenUDPIn(m, port, h)
	if err != nil {
		return nil, err
	}
	return recSocket{s, n.r}, nil
}

func (n recNode) JoinGroupIn(m netapi.Mode, group netapi.Addr, h netapi.PacketHandler) (netapi.UDPSocket, error) {
	s, err := n.Node.JoinGroupIn(m, group, h)
	if err != nil {
		return nil, err
	}
	return recSocket{s, n.r}, nil
}

func (n recNode) ListenStreamIn(m netapi.Mode, port int, accept netapi.ConnHandler, recv netapi.StreamHandler) (netapi.Closer, error) {
	var acc netapi.ConnHandler
	if accept != nil {
		acc = func(c netapi.Conn) { accept(n.r.conn(c)) }
	}
	return n.Node.ListenStreamIn(m, port, acc, func(c netapi.Conn, data []byte) { recv(n.r.conn(c), data) })
}

func (n recNode) DialStreamIn(m netapi.Mode, to netapi.Addr, recv netapi.StreamHandler) (netapi.Conn, error) {
	c, err := n.Node.DialStreamIn(m, to, func(c netapi.Conn, data []byte) { recv(n.r.conn(c), data) })
	if err != nil {
		return nil, err
	}
	return n.r.conn(c), nil
}

type recSocket struct {
	netapi.UDPSocket
	r *wireRecorder
}

func (s recSocket) Send(to netapi.Addr, data []byte) error {
	s.r.add(data)
	return s.UDPSocket.Send(to, data)
}

type recConn struct {
	netapi.Conn
	r *wireRecorder
}

func (c recConn) Send(data []byte) error {
	c.r.add(data)
	return c.Conn.Send(data)
}

// TestWireGolden holds what the bridge puts on the wire byte for byte:
// each builtin case runs one interaction on the simulator against the
// builtin legacy stacks, and every payload the bridge node sends is
// compared, in order and as hex, with testdata/wire/<case>.golden. A
// change to the models or the codecs that moves a byte shows here.
// Regenerate deliberately with `go test -run TestWireGolden -update`.
func TestWireGolden(t *testing.T) {
	reg, err := sharedRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CaseOrder {
		t.Run(name, func(t *testing.T) {
			sim := simnet.New(simnet.WithSeed(1))
			rec := &wireRecorder{conns: map[netapi.Conn]netapi.Conn{}}
			var stats sessionEnds
			bridge, err := provision.Deploy(context.Background(), reg, recRuntime{sim, rec}, "10.0.0.5",
				[]string{name}, provision.WithSink(&stats))
			if err != nil {
				t.Fatal(err)
			}
			defer bridge.Close()
			if err := startBridgeWorkload(sim, rand.New(rand.NewSource(1)), name); err != nil {
				t.Fatal(err)
			}
			if err := sim.RunUntil(func() bool { return len(stats) > 0 }, 2*time.Minute); err != nil {
				t.Fatal(err)
			}
			sim.RunToQuiescence()
			if stats[0].Err != nil {
				t.Fatal(stats[0].Err)
			}
			rec.mu.Lock()
			got := strings.Join(rec.sent, "\n") + "\n"
			rec.mu.Unlock()
			path := filepath.Join("testdata", "wire", name+".golden")
			if *updateWire {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("the bridge's wire moved.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
