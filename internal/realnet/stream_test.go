package realnet_test

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/protocols/httpx"
	"starlink/internal/realnet"
)

// settle waits up to 5 s for cond.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// baseline records the goroutines and leases before a test and checks
// both are back once it has closed everything.
func baseline(t *testing.T) func() {
	g, l := runtime.NumGoroutine(), netapi.LeasedBuffers()
	return func() {
		t.Helper()
		settle(t, "goroutines and leases back at baseline", func() bool {
			return runtime.NumGoroutine() <= g && netapi.LeasedBuffers() == l
		})
	}
}

// echoPair is a listener on one node and a connection to it from
// another; srv is the accepted end once the first chunk arrived.
type echoPair struct {
	rt     *realnet.Runtime
	ln     netapi.Closer
	cli    netapi.Conn
	srv    atomic.Pointer[netapi.Conn]
	chunks atomic.Int64
	bytes  atomic.Int64
}

func newEchoPair(t *testing.T, srvView func(netapi.Node) netapi.Node, recv func(p *echoPair, c netapi.Conn, data []byte)) *echoPair {
	t.Helper()
	p := &echoPair{rt: realnet.New()}
	srvNode, _ := p.rt.NewNode("127.0.0.1")
	cliNode, _ := p.rt.NewNode("127.0.0.1")
	t.Cleanup(func() { srvNode.Close(); cliNode.Close() })
	var err error
	p.ln, err = srvView(srvNode).ListenStream(0, func(c netapi.Conn) { p.srv.Store(&c) }, func(c netapi.Conn, data []byte) {
		if data == nil {
			return
		}
		p.chunks.Add(1)
		p.bytes.Add(int64(len(data)))
		if recv != nil {
			recv(p, c, data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := p.ln.(interface{ Addr() netapi.Addr }).Addr()
	if p.cli, err = cliNode.DialStream(addr, func(netapi.Conn, []byte) {}); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *echoPair) close() {
	_ = p.cli.Close()
	_ = p.ln.Close()
	if c := p.srv.Load(); c != nil {
		_ = (*c).Close()
	}
}

func plain(n netapi.Node) netapi.Node { return n }

// A stream arrival costs one read(2): the read that finds the kernel
// queue empty ends the arrival, and the loop waits for the next edge
// without a read that would block.
func TestStreamArrivalCostsOneRead(t *testing.T) {
	done := baseline(t)
	p := newEchoPair(t, plain, nil)
	if err := p.cli.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	settle(t, "the warm-up chunk", func() bool { return p.chunks.Load() == 1 })
	// The count covers both ends: let the dialled end's first read, the
	// one that finds nothing yet, land before it is taken.
	time.Sleep(10 * time.Millisecond)
	before := realnet.StreamReads()
	const n = 50
	for i := 2; i <= n+1; i++ {
		if err := p.cli.Send([]byte("arrival")); err != nil {
			t.Fatal(err)
		}
		settle(t, "an arrival", func() bool { return p.chunks.Load() == int64(i) })
	}
	time.Sleep(10 * time.Millisecond)
	if got := realnet.StreamReads() - before; got != n {
		t.Errorf("%d arrivals cost %d read(2) calls, want %d", n, got, n)
	}
	p.close()
	done()
}

// A connection between arrivals holds no leased buffer, and neither
// does one parked in the dial-reuse pool.
func TestIdleStreamConnHoldsNoBuffer(t *testing.T) {
	done := baseline(t)
	leases := netapi.LeasedBuffers()
	rt := realnet.New()
	srvNode, _ := rt.NewNode("127.0.0.1")
	cliNode, _ := rt.NewNode("127.0.0.1")
	ln, err := srvNode.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			_ = c.Send(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var echoed atomic.Int64
	conn, err := netapi.Detach(cliNode).DialStream(ln.(interface{ Addr() netapi.Addr }).Addr(), func(_ netapi.Conn, data []byte) {
		echoed.Add(int64(len(data)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(make([]byte, 3*netapi.BufferSize)); err != nil {
		t.Fatal(err)
	}
	settle(t, "the echo", func() bool { return echoed.Load() == 3*netapi.BufferSize })
	settle(t, "no lease on an idle connection", func() bool { return netapi.LeasedBuffers() == leases })
	if !cliNode.ParkConn(conn) {
		t.Fatal("a clean dialed connection must be parkable")
	}
	time.Sleep(10 * time.Millisecond)
	if got := netapi.LeasedBuffers() - leases; got != 0 {
		t.Errorf("a parked connection and its idle peer hold %d leased buffers, want 0", got)
	}
	ln.Close()
	srvNode.Close()
	cliNode.Close()
	// The parked connection is the runtime's: the peer's close evicts it.
	done()
}

// recv may close its own connection — the read loop is inside the raw
// read callback then, and closing the descriptor would wait for it —
// both as httpx.Get does, returning at once, and as netengine's framing
// loss does, handing on what it framed after the Close.
func TestStreamCloseFromRecv(t *testing.T) {
	done := baseline(t)
	rt := realnet.New()
	srvNode, _ := rt.NewNode("127.0.0.1")
	cliNode, _ := rt.NewNode("127.0.0.1")
	free, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := free.Addr().(*net.TCPAddr).Port
	free.Close()
	srv, err := httpx.NewServer(srvNode, port, func(*httpx.Request) (int, string, string, []byte) {
		return 200, "OK", "text/plain", []byte("body")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	httpx.Get(cliNode, srv.Addr(), "/", func(r *httpx.Response, err error) {
		if err == nil && string(r.Body) != "body" {
			t.Errorf("body %q", r.Body)
		}
		got <- err
	})
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response: a Close from recv deadlocked the read loop")
	}

	var after atomic.Int64
	p := newEchoPair(t, plain, func(p *echoPair, c netapi.Conn, data []byte) {
		_ = c.Close()
		if err := c.Send([]byte("x")); err == nil {
			t.Error("Send after Close succeeded")
		}
		after.Add(1) // recv runs on after its Close
	})
	if err := p.cli.Send([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	settle(t, "the self-closing recv", func() bool { return after.Load() == 1 })
	p.close()
	srv.Close()
	srvNode.Close()
	cliNode.Close()
	done()
}

// A Close from another goroutine while recv runs returns without
// waiting for it; the read loop closes the descriptor once recv returns
// and delivers nothing more.
func TestStreamCloseRacesCallback(t *testing.T) {
	done := baseline(t)
	entered, release := make(chan struct{}), make(chan struct{})
	p := newEchoPair(t, plain, func(p *echoPair, c netapi.Conn, data []byte) {
		if p.chunks.Load() == 1 {
			close(entered)
			<-release
		}
	})
	if err := p.cli.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		_ = (*p.srv.Load()).Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for the running callback")
	}
	_ = p.cli.Send([]byte("two"))
	close(release)
	time.Sleep(20 * time.Millisecond)
	if n := p.chunks.Load(); n != 1 {
		t.Errorf("%d chunks delivered, want 1: nothing after Close", n)
	}
	p.close()
	done()
}

// A recv that pauses its listener's gate holds back the rest of what
// arrived: nothing is delivered until the gate reopens, then all of it;
// and a Close while paused releases everything.
func TestGatedStreamPauseHoldsChunk(t *testing.T) {
	done := baseline(t)
	gate := netapi.NewFlowGate()
	var once sync.Once
	p := newEchoPair(t, func(n netapi.Node) netapi.Node { return netapi.Gated(n, gate) }, func(*echoPair, netapi.Conn, []byte) {
		once.Do(gate.Pause)
	})
	const total = 3 * netapi.BufferSize
	if err := p.cli.Send(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	settle(t, "the first chunk", func() bool { return p.chunks.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	first := p.bytes.Load()
	if first >= total || p.chunks.Load() != 1 {
		t.Fatalf("%d chunks, %d of %d bytes delivered while paused, want the first chunk only", p.chunks.Load(), first, total)
	}
	gate.Resume()
	settle(t, "the rest after resume", func() bool { return p.bytes.Load() == total })

	gate.Pause()
	if err := p.cli.Send([]byte("held")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := p.bytes.Load(); got != total {
		t.Fatalf("%d bytes delivered through a paused gate", got-total)
	}
	p.close()
	gate.Resume()
	done()
}
