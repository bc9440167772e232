package realnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/netapi"
)

func TestUnicastUDPLoopback(t *testing.T) {
	rt := New()
	a, err := rt.NewNode("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rt.NewNode("10.0.0.2")

	var got string
	bs, err := b.OpenUDP(0, func(p netapi.Packet) { got = string(p.Data) })
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	as, err := a.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	if err := as.Send(bs.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return got == "hello" }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastRegistryFanout(t *testing.T) {
	rt := New()
	group := netapi.Addr{IP: "239.255.255.253", Port: 427}
	recvA, recvB := false, false

	a, _ := rt.NewNode("svc-a")
	b, _ := rt.NewNode("svc-b")
	c, _ := rt.NewNode("client")

	sa, err := a.JoinGroup(group, func(netapi.Packet) { recvA = true })
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := b.JoinGroup(group, func(netapi.Packet) { recvB = true })
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	cs, _ := c.OpenUDP(0, func(netapi.Packet) {})
	defer cs.Close()
	if err := cs.Send(group, []byte("query")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return recvA && recvB }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestGroupReplyToSource(t *testing.T) {
	rt := New()
	group := netapi.Addr{IP: "224.0.0.251", Port: 5353}
	svc, _ := rt.NewNode("svc")
	cli, _ := rt.NewNode("cli")

	// Nothing orders the assignment of svcSock before the handler's read
	// (the ping passes through the kernel), and the shared group port may
	// deliver a stray datagram first: the handler waits until svcSock is
	// published and answers only the test's ping.
	var svcSock netapi.UDPSocket
	published := make(chan struct{})
	svcSock, err := svc.JoinGroup(group, func(p netapi.Packet) {
		if string(p.Data) != "ping" {
			return
		}
		<-published
		if err := svcSock.Send(p.From, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(published)
	defer svcSock.Close()

	var got string
	cs, _ := cli.OpenUDP(0, func(p netapi.Packet) { got = string(p.Data) })
	defer cs.Close()
	if err := cs.Send(group, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return got == "pong" }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRoundtrip(t *testing.T) {
	rt := New()
	srv, _ := rt.NewNode("srv")
	cli, _ := rt.NewNode("cli")

	l, err := srv.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			if err := c.Send(append([]byte("echo:"), data...)); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var got string
	conn, err := cli.DialStream(netapi.Addr{IP: "127.0.0.1", Port: l.(*listener).Addr().Port}, func(c netapi.Conn, data []byte) {
		if data != nil {
			got += string(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return got == "echo:ping" }, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// Stream read loops lease their 64 KiB buffers from the netapi pool: a
// run of short-lived connections — one per bridged HTTP exchange
// whenever the dial pool misses — must not allocate (and zero) a fresh
// buffer for each read.
func TestStreamReadBufferRecycled(t *testing.T) {
	rt := New()
	srv, _ := rt.NewNode("srv")
	cli, _ := rt.NewNode("cli")
	closed := 0
	l, err := srv.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		if data == nil {
			closed++
			return
		}
		if err := c.Send(data); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	port := l.(*listener).Addr().Port
	exchange := func(i int) {
		echoed := false
		conn, err := cli.DialStream(netapi.Addr{IP: "127.0.0.1", Port: port}, func(c netapi.Conn, data []byte) {
			echoed = echoed || data != nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if err := rt.RunUntil(func() bool { return echoed }, 3*time.Second); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		// The accept side's read loop has returned its buffer once it
		// reported the close.
		if err := rt.RunUntil(func() bool { return closed == i+1 }, 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	exchange(0) // the first exchange fills the pool
	const conns = 64
	var before, after runtime.MemStats
	reads := streamReads.Load()
	runtime.ReadMemStats(&before)
	for i := 1; i <= conns; i++ {
		exchange(i)
	}
	runtime.ReadMemStats(&after)
	// A read loop leases a buffer for each arrival, for the read that
	// finds a dialled connection's queue still empty, and for the one
	// that sees the stream end, so it takes at most one lease per read
	// (four or five an exchange here). Unpooled, each lease allocates a
	// buffer; allow half of that for the pool's misses (a GC cycle
	// empties it, and the race detector makes it drop one Put in four,
	// about a quarter of the leases' bytes).
	leases := streamReads.Load() - reads
	if got, limit := after.TotalAlloc-before.TotalAlloc, leases*netapi.BufferSize/2; got > limit {
		t.Fatalf("%d connections (%d leases) allocated %d bytes, want at most %d: read buffers are not recycled", conns, leases, got, limit)
	}
}

func TestTimerFireAndCancel(t *testing.T) {
	rt := New()
	n, _ := rt.NewNode("x")
	fired := false
	n.After(20*time.Millisecond, func() { fired = true })
	if err := rt.RunUntil(func() bool { return fired }, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	cancelled := false
	tm := n.NewTimer(func() { cancelled = true })
	tm.Reset(50 * time.Millisecond)
	tm.Stop()
	rt.Run(80 * time.Millisecond)
	if cancelled {
		t.Fatal("stopped timer fired")
	}
}

// An arm the runtime has expired has its fire on the way; a Reset or
// Stop that comes first must keep that fire from running the callback —
// for the next arm least of all. The runtime's timer is stopped by hand
// and the late fire delivered by hand, to hold that order every time.
func TestTimerSkipsFireOfReplacedArm(t *testing.T) {
	rt := New()
	n, _ := rt.NewNode("x")
	var fired atomic.Int32
	tm := n.NewTimer(func() { fired.Add(1) }).(*timer)
	tm.Reset(time.Hour)
	tm.t.Stop() // expired: its fire is on the way
	tm.Reset(20 * time.Millisecond)
	tm.fire() // ... and arrives after the Reset
	if fired.Load() != 0 {
		t.Fatal("the replaced arm's fire ran the callback")
	}
	if err := rt.RunUntil(func() bool { return fired.Load() == 1 }, 2*time.Second); err != nil {
		t.Fatalf("the new arm did not fire: %v", err)
	}
	tm.Reset(time.Hour)
	tm.t.Stop()
	tm.Stop()
	tm.fire()
	rt.Run(40 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("%d fires, want 1: a stopped arm's late fire ran the callback", got)
	}
}

// Every timer due at once must run: one once fired before After had
// registered it, took itself for cancelled and never ran.
func TestImmediateTimerFires(t *testing.T) {
	rt := New()
	n, _ := rt.NewNode("x")
	const timers = 10000
	fired := 0
	for i := 0; i < timers; i++ {
		n.After(0, func() { fired++ }) // root domain: serial, and read under RunUntil
	}
	if err := rt.RunUntil(func() bool { return fired == timers }, 3*time.Second); err != nil {
		t.Fatalf("%d of %d immediate timers fired: %v", fired, timers, err)
	}
}

func TestRunUntilTimeout(t *testing.T) {
	rt := New()
	if err := rt.RunUntil(func() bool { return false }, 30*time.Millisecond); err == nil {
		t.Fatal("want timeout")
	}
}

func TestGatedUDPReadLoopPausesAndResumes(t *testing.T) {
	rt := New()
	a, err := rt.NewNode("sender")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rt.NewNode("receiver")

	gate := netapi.NewFlowGate()
	gated := netapi.Gated(netapi.Node(b), gate)

	var mu sync.Mutex
	var got []string
	bs, err := gated.OpenUDP(0, func(p netapi.Packet) {
		mu.Lock()
		got = append(got, string(p.Data))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	as, err := a.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()

	// Prove the gated path delivers at all before pausing.
	if err := as.Send(bs.LocalAddr(), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, 3*time.Second); err != nil {
		t.Fatal(err)
	}

	gate.Pause()
	for i := 0; i < 5; i++ {
		if err := as.Send(bs.LocalAddr(), []byte{'p', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	paused := len(got)
	mu.Unlock()
	if paused != 1 {
		t.Fatalf("handler ran %d times while gate blocked, want 1 (the warmup)", paused)
	}

	gate.Resume()
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 6
	}, 3*time.Second); err != nil {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("after resume got %d deliveries, want 6: %v (%v)", len(got), got, err)
	}
}

func TestGatedStreamReadLoopPausesAndResumes(t *testing.T) {
	rt := New()
	srv, err := rt.NewNode("server")
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := rt.NewNode("client")

	gate := netapi.NewFlowGate()
	gated := netapi.Gated(netapi.Node(srv), gate)

	var mu sync.Mutex
	var total int
	l, err := gated.ListenStream(0, nil, func(c netapi.Conn, chunk []byte) {
		mu.Lock()
		total += len(chunk)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.(interface{ Addr() netapi.Addr }).Addr()

	conn, err := cli.DialStream(addr, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 4
	}, 3*time.Second); err != nil {
		t.Fatal(err)
	}

	gate.Pause()
	// Give the read loop a beat to park on the gate, then send while
	// blocked: bytes must sit in the kernel buffer, not reach recv.
	time.Sleep(20 * time.Millisecond)
	if err := conn.Send([]byte("blocked-bytes")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	pausedTotal := total
	mu.Unlock()
	if pausedTotal != 4 {
		t.Fatalf("recv saw %d bytes while gate blocked, want 4 (the warmup)", pausedTotal)
	}

	gate.Resume()
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == 4+len("blocked-bytes")
	}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// A dial-reuse slot a claim empties is kept, so the next park to that
// destination appends to the array it had, while the pool names at most
// maxPoolDests destinations; beyond that an emptied slot is deleted.
func TestParkPoolKeepsEmptiedSlotsWithinBound(t *testing.T) {
	rt := New()
	conns := make([]*streamConn, 2*maxPoolDests)
	rt.stateMu.Lock()
	defer rt.stateMu.Unlock()
	for i := range conns {
		conns[i] = &streamConn{remote: netapi.Addr{IP: "127.0.0.1", Port: 1 + i}}
		key := poolKey(conns[i].remote)
		rt.parked[key] = append(rt.parked[key], conns[i])
	}
	for _, sc := range conns {
		rt.removeParkedLocked(sc)
	}
	if len(rt.parked) != maxPoolDests {
		t.Fatalf("%d destinations left in the pool, want the %d slots emptied last", len(rt.parked), maxPoolDests)
	}
	sc := conns[len(conns)-1]
	key := poolKey(sc.remote)
	if allocs := testing.AllocsPerRun(100, func() {
		rt.parked[key] = append(rt.parked[key], sc)
		rt.removeParkedLocked(sc)
	}); allocs != 0 {
		t.Errorf("parking to a kept slot allocates %.0f times, want 0", allocs)
	}
}
