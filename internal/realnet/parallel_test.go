package realnet_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

// Two endpoints of a detached node must dispatch in parallel: endpoint
// A's handler blocks until endpoint B's handler has run. Under the
// retired global dispatcher lock (or any serialisation of the two
// endpoints) this deadlocks; under per-endpoint serial execution it
// completes.
func TestDetachedEndpointsDispatchInParallel(t *testing.T) {
	rt := realnet.New()
	recvNode, _ := rt.NewNode("10.0.0.5")
	dn := netapi.Detach(recvNode)

	gate := make(chan struct{})
	done := make(chan struct{})
	sockA, err := dn.OpenUDP(0, func(netapi.Packet) {
		<-gate // blocks endpoint A until endpoint B dispatched
		close(done)
	})
	if err != nil {
		t.Fatal(err)
	}
	var gateOnce sync.Once
	sockB, err := dn.OpenUDP(0, func(netapi.Packet) {
		gateOnce.Do(func() { close(gate) })
	})
	if err != nil {
		t.Fatal(err)
	}

	sendNode, _ := rt.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(sockA.LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Give A's handler a moment to enter its blocking wait, then hit B.
	time.Sleep(20 * time.Millisecond)
	if err := cli.Send(sockB.LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("endpoints are serialised: B's handler never ran while A's was blocked")
	}
}

// Callbacks for one socket must stay ordered even though distinct
// endpoints dispatch in parallel (the per-endpoint half of the
// contract).
func TestSameEndpointStaysOrdered(t *testing.T) {
	rt := realnet.New()
	recvNode, _ := rt.NewNode("10.0.0.5")
	dn := netapi.Detach(recvNode)

	const n = 200
	var seq []byte
	done := make(chan struct{})
	sock, err := dn.OpenUDP(0, func(pkt netapi.Packet) {
		// Handlers for one endpoint are serial: no locking needed.
		seq = append(seq, pkt.Data[0])
		if len(seq) == n {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sendNode, _ := rt.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cli.Send(sock.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d datagrams", len(seq), n)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] != seq[i-1]+1 {
			t.Fatalf("out of order at %d: %d after %d", i, seq[i], seq[i-1])
		}
	}
}

// A handler that takes the packet's lease owns the bytes beyond the
// callback; the runtime leases a fresh buffer and keeps delivering.
func TestTakeLeaseKeepsDataStable(t *testing.T) {
	rt := realnet.New()
	recvNode, _ := rt.NewNode("10.0.0.5")
	type held struct {
		lease *netapi.Buffer
		data  []byte
	}
	heldCh := make(chan held, 8)
	sock, err := recvNode.OpenUDP(0, func(pkt netapi.Packet) {
		heldCh <- held{lease: pkt.TakeLease(), data: pkt.Data}
	})
	if err != nil {
		t.Fatal(err)
	}
	sendNode, _ := rt.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cli.Send(sock.LocalAddr(), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case h := <-heldCh:
			if h.lease == nil {
				t.Fatal("realnet datagrams must carry a lease")
			}
			if want := fmt.Sprintf("payload-%d", i); string(h.data) != want {
				t.Fatalf("payload %d = %q, want %q (buffer reused while leased?)", i, h.data, want)
			}
			h.lease.Release()
		case <-time.After(5 * time.Second):
			t.Fatalf("datagram %d never arrived", i)
		}
	}
}

// Two sockets on two nodes share the buffer pool. Socket A's handler
// takes each lease and releases it at once; socket B's handler takes the
// lease of one datagram and only reads the next, which leaves that
// buffer with its read loop. A's handler returns only once B has handled
// both, so the buffer A released may by then be B's receive buffer when
// A's read loop asks whether its handler took the lease. The loop reads
// the answer from a flag in its own frame (Packet.BindLeaseFlag), which
// the buffer's next owner cannot touch: every buffer has one owner, no
// buffer is released twice, and every lease comes back.
func TestTwoSocketsReleaseLeasesAtOnce(t *testing.T) {
	ledger := newLeaseLedger(t)
	rt := realnet.New()
	var (
		mu       sync.Mutex
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(failures) > 0
	}
	open := func(ip string, h netapi.PacketHandler) netapi.UDPSocket {
		node, _ := rt.NewNode(ip)
		sock, err := node.OpenUDP(0, h)
		if err != nil {
			t.Fatal(err)
		}
		return sock
	}

	seenB := make(chan struct{}, 4)
	sockB := open("10.0.1.2", func(pkt netapi.Packet) {
		defer func() {
			if r := recover(); r != nil {
				fail("socket B, %q: %v", pkt.Data, r)
			}
			seenB <- struct{}{}
		}()
		switch string(pkt.Data) {
		case "take":
			pkt.TakeLease().Release()
		case "look":
			// Read in the callback: the lease stays with the read loop.
		default:
			fail("socket B received %q: its buffer has a second owner", pkt.Data)
		}
	})
	toB := open("10.0.2.2", func(netapi.Packet) {})
	doneA := make(chan struct{}, 1)
	sockA := open("10.0.1.1", func(pkt netapi.Packet) {
		defer func() {
			if r := recover(); r != nil {
				fail("socket A: %v", r)
			}
			doneA <- struct{}{}
		}()
		if string(pkt.Data) != "a" {
			fail("socket A received %q: its buffer has a second owner", pkt.Data)
		}
		pkt.TakeLease().Release()
		for _, m := range []string{"take", "look"} {
			if err := toB.Send(sockB.LocalAddr(), []byte(m)); err != nil {
				fail("send to B: %v", err)
				return
			}
			select {
			case <-seenB:
			case <-time.After(5 * time.Second):
				fail("socket B never handled %q", m)
				return
			}
		}
	})
	toA := open("10.0.2.1", func(netapi.Packet) {})

	for round := 0; round < 500 && !failed(); round++ {
		if err := toA.Send(sockA.LocalAddr(), []byte("a")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-doneA:
		case <-time.After(5 * time.Second):
			fail("round %d: socket A never handled its datagram", round)
		}
	}
	mu.Lock()
	for _, f := range failures {
		t.Error(f)
	}
	mu.Unlock()
	if t.Failed() {
		// A buffer with two owners would panic again in the read loops'
		// Close; leave the sockets open so the failures above are reported.
		return
	}
	for _, s := range []netapi.UDPSocket{sockA, sockB, toA, toB} {
		s.Close()
	}
	ledger.settle(0, "after Close")
}

// Concurrent stream sends take turns, each one whole write: every byte
// arrives exactly once.
func TestStreamWriteCoalescing(t *testing.T) {
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	var total atomic.Int64
	l, err := srvNode.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		total.Add(int64(len(data)))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	port := listenerPort(t, rt, srvNode, l)

	cliNode, _ := rt.NewNode("10.0.0.1")
	conn, err := cliNode.DialStream(netapi.Addr{IP: "10.0.0.5", Port: port}, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	const senders, chunk, per = 16, 128, 25
	payload := make([]byte, chunk)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := conn.Send(payload); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	want := int64(senders * chunk * per)
	if err := rt.RunUntil(func() bool { return total.Load() == want }, 5*time.Second); err != nil {
		t.Fatalf("received %d of %d bytes: %v", total.Load(), want, err)
	}
}

// listenerPort extracts the bound port of a stream listener by dialing
// is not possible without it, so derive it from a throwaway probe conn.
func listenerPort(t *testing.T, rt *realnet.Runtime, srvNode netapi.Node, l netapi.Closer) int {
	t.Helper()
	type porter interface{ Addr() netapi.Addr }
	if p, ok := l.(porter); ok {
		return p.Addr().Port
	}
	t.Fatal("listener does not expose its bound address")
	return 0
}

// Closing a clean detached-dialed connection through ParkConn keeps
// the TCP connection alive in the runtime's dial-reuse pool: the next
// detached DialStream to the same destination reuses it (same local
// port, no new handshake), and the reused connection still delivers
// both ways. Dials go through netapi.Detach, as netengine's requesters
// do — only private-domain connections are poolable.
func TestDialStreamReuse(t *testing.T) {
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	var srvConns []netapi.Conn
	var mu sync.Mutex
	l, err := srvNode.ListenStream(0, func(c netapi.Conn) {
		mu.Lock()
		srvConns = append(srvConns, c)
		mu.Unlock()
	}, func(c netapi.Conn, data []byte) {
		if data != nil {
			_ = c.Send(append([]byte("re:"), data...))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	port := listenerPort(t, rt, srvNode, l)
	dest := netapi.Addr{IP: "10.0.0.5", Port: port}

	cliNode, _ := rt.NewNode("10.0.0.1")
	cli := netapi.Detach(cliNode)
	got1 := make(chan string, 1)
	conn1, err := cli.DialStream(dest, func(c netapi.Conn, data []byte) {
		if data != nil {
			got1 <- string(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn1.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got1:
		if r != "re:one" {
			t.Fatalf("reply = %q", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply on first connection")
	}

	if !cliNode.ParkConn(conn1) {
		t.Fatal("a clean dialed connection must be parkable")
	}

	got2 := make(chan string, 1)
	conn2, err := cli.DialStream(dest, func(c netapi.Conn, data []byte) {
		if data != nil {
			got2 <- string(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if conn2.LocalAddr() != conn1.LocalAddr() {
		t.Fatalf("expected connection reuse: %v vs %v", conn2.LocalAddr(), conn1.LocalAddr())
	}
	if err := conn2.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got2:
		if r != "re:two" {
			t.Fatalf("reply = %q", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply on reused connection")
	}
	mu.Lock()
	accepted := len(srvConns)
	mu.Unlock()
	if accepted != 1 {
		t.Fatalf("server accepted %d connections, want 1 (reuse)", accepted)
	}
	if err := conn2.Close(); err != nil {
		t.Fatal(err)
	}
}

// The dial-reuse pool must never cross dispatch domains: a connection
// dialed undetached runs its callbacks on the node's root domain, so
// it is not parkable; an undetached DialStream never claims a parked
// connection (it would inherit a foreign private domain instead of the
// node's root domain); and Send on a parked connection is refused
// until a claimant takes it over.
func TestConnPoolRespectsDispatchDomains(t *testing.T) {
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	l, err := srvNode.ListenStream(0, nil, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dest := netapi.Addr{IP: "10.0.0.5", Port: listenerPort(t, rt, srvNode, l)}

	cliNode, _ := rt.NewNode("10.0.0.1")

	rootConn, err := cliNode.DialStream(dest, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if cliNode.ParkConn(rootConn) {
		t.Fatal("a root-domain (undetached) connection must not be parkable")
	}
	if err := rootConn.Close(); err != nil {
		t.Fatal(err)
	}

	cli := netapi.Detach(cliNode)
	pooled, err := cli.DialStream(dest, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if !cliNode.ParkConn(pooled) {
		t.Fatal("a clean detached-dialed connection must be parkable")
	}
	if err := pooled.Send([]byte("x")); err == nil {
		t.Fatal("Send on a parked connection must be refused")
	}

	fresh, err := cliNode.DialStream(dest, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.LocalAddr() == pooled.LocalAddr() {
		t.Fatal("an undetached dial must not claim a parked private-domain connection")
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}

	claimed, err := cli.DialStream(dest, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if claimed.LocalAddr() != pooled.LocalAddr() {
		t.Fatal("a detached dial must reuse the parked connection")
	}
	if err := claimed.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := claimed.Close(); err != nil {
		t.Fatal(err)
	}
}
