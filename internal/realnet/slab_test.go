package realnet_test

import (
	"runtime"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

// leaseLedger reads netapi.LeasedBuffers relative to the moment it was
// created — after the read loops of earlier tests' closed sockets have
// let go of their buffers.
type leaseLedger struct {
	t    *testing.T
	base int64
}

func newLeaseLedger(t *testing.T) *leaseLedger {
	t.Helper()
	base := netapi.LeasedBuffers()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(time.Millisecond)
		if now := netapi.LeasedBuffers(); now != base {
			base, quiet = now, 0
		}
	}
	return &leaseLedger{t: t, base: base}
}

func (l *leaseLedger) leased() int64 { return netapi.LeasedBuffers() - l.base }

// settle waits for the ledger to read want and checks that it stays
// there: a read loop takes and returns its buffers on its own goroutine.
func (l *leaseLedger) settle(want int64, when string) {
	l.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.leased() != want {
		if time.Now().After(deadline) {
			l.t.Fatalf("%s: %d buffers leased, want %d", when, l.leased(), want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := l.leased(); got != want {
		l.t.Fatalf("%s: %d buffers leased after settling at %d", when, got, want)
	}
}

// backlogSocket is a receiving socket whose handler the test can hold:
// on the first delivery, so a backlog can be queued behind it, and on
// the first delivery of a read that returned holdAt datagrams.
type backlogSocket struct {
	sock    netapi.UDPSocket
	entered chan struct{} // first delivery reached the handler
	backlog chan struct{} // closed by the test once the backlog is queued
	atSize  chan struct{} // a read of holdAt datagrams reached the handler
	resume  chan struct{} // closed by the test to let that read go on
	done    chan struct{} // closed after want deliveries

	// Written by the handler (one goroutine); read after done or while
	// the handler is held.
	seqs     []int
	maxBatch int
}

func openBacklogSocket(t *testing.T, node netapi.Node, holdAt, want int) *backlogSocket {
	t.Helper()
	b := &backlogSocket{
		entered: make(chan struct{}), backlog: make(chan struct{}),
		atSize: make(chan struct{}), resume: make(chan struct{}),
		done: make(chan struct{}),
	}
	held := false
	var err error
	b.sock, err = node.OpenUDP(0, func(pkt netapi.Packet) {
		if len(b.seqs) == 0 {
			close(b.entered)
			<-b.backlog
		}
		if pkt.Batch == holdAt && !held {
			held = true
			close(b.atSize)
			<-b.resume
		}
		b.seqs = append(b.seqs, int(pkt.Data[0])<<8|int(pkt.Data[1]))
		if pkt.Batch > b.maxBatch {
			b.maxBatch = pkt.Batch
		}
		if len(b.seqs) == want {
			close(b.done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// queue sends n datagrams to the socket: the first alone, and the rest
// once the handler holds it, so they pile up in the kernel queue.
func (b *backlogSocket) queue(t *testing.T, from netapi.UDPSocket, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := from.Send(b.sock.LocalAddr(), []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wait(t, b.entered, "first delivery")
		}
	}
	close(b.backlog)
}

func (b *backlogSocket) checkOrder(t *testing.T, n int) {
	t.Helper()
	if len(b.seqs) != n {
		t.Fatalf("%d deliveries, want %d", len(b.seqs), n)
	}
	for i, seq := range b.seqs {
		if seq != i {
			t.Fatalf("delivery %d carries datagram %d: order lost", i, seq)
		}
	}
}

func wait(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// parkedLeases is what a socket waiting for its next datagram holds: no
// buffer under recvmmsg, which waits for readability first; the one it
// reads into under the portable primitive.
func parkedLeases() int64 {
	if realnet.Batched() {
		return 0
	}
	return 1
}

// TestRecvSlabSizesItself pins the read loop's sizing rule from the
// outside: an idle socket leases no buffer (one, portably); a backlog
// grows the slab to recvBatch and order survives the growth; the drained
// socket parks on nothing again; and a close or a blocked gate at any
// size gives every buffer back.
func TestRecvSlabSizesItself(t *testing.T) {
	ledger := newLeaseLedger(t)
	rt := realnet.New()
	node, _ := rt.NewNode("10.0.0.5")

	t.Run("idle", func(t *testing.T) {
		const n = 8
		var socks []netapi.UDPSocket
		for i := 0; i < n; i++ {
			s, err := node.OpenUDP(0, func(netapi.Packet) {})
			if err != nil {
				t.Fatal(err)
			}
			socks = append(socks, s)
		}
		ledger.settle(n*parkedLeases(), "idle sockets open")
		for _, s := range socks {
			_ = s.Close()
		}
		ledger.settle(0, "idle sockets closed")
	})

	if !realnet.Batched() {
		return // one datagram per read: the slab has nothing to grow on
	}
	sender, err := node.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	ledger.settle(0, "sender open and parked")

	t.Run("backlog", func(t *testing.T) {
		const n = 200
		b := openBacklogSocket(t, node, -1, n)
		b.queue(t, sender, n)
		wait(t, b.done, "the backlog to drain")
		b.checkOrder(t, n)
		if b.maxBatch != realnet.RecvBatch {
			t.Fatalf("largest read returned %d datagrams, want the slab to reach %d", b.maxBatch, realnet.RecvBatch)
		}
		ledger.settle(0, "backlog drained, loop parked")
		_ = b.sock.Close()
		ledger.settle(0, "socket closed")
	})

	for size := 1; size <= realnet.RecvBatch; size *= 2 {
		b := openBacklogSocket(t, node, size, -1)
		b.queue(t, sender, 3*realnet.RecvBatch)
		wait(t, b.atSize, "a full read")
		if got := ledger.leased(); got != int64(size) {
			t.Fatalf("slab of %d: %d buffers leased, want %d", size, got, size)
		}
		_ = b.sock.Close()
		close(b.resume)
		ledger.settle(0, "socket closed mid-growth")
	}

	t.Run("gate", func(t *testing.T) {
		const n = 200
		gate := netapi.NewFlowGate()
		b := openBacklogSocket(t, netapi.Gated(node, gate), 8, n)
		b.queue(t, sender, n)
		wait(t, b.atSize, "a read of 8")
		gate.Pause()
		close(b.resume)
		ledger.settle(0, "gate blocked mid-growth")
		if len(b.seqs) >= n {
			t.Fatalf("all %d datagrams delivered through a blocked gate", n)
		}
		gate.Resume()
		wait(t, b.done, "the backlog to drain after the gate reopened")
		b.checkOrder(t, n)
		ledger.settle(0, "gate reopened, backlog drained")
		_ = b.sock.Close()
		ledger.settle(0, "gated socket closed")
	})
}

// TestIdleSocketFootprint bounds the heap an open, idle UDP socket
// pins: the socket's own state and, under the portable primitive only,
// the one buffer it reads into. (A slab leased up front made this
// 2.1 MiB; one buffer held through the wait, 64 KiB.)
func TestIdleSocketFootprint(t *testing.T) {
	const n = 32
	rt := realnet.New()
	node, _ := rt.NewNode("10.0.0.5")
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sync.Pool victim cache kept
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	ledger := newLeaseLedger(t)
	before := heap()
	var socks []netapi.UDPSocket
	var held []*netapi.Buffer
	for i := 0; i < n; i++ {
		s, err := node.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, s)
		// Take the buffer the socket parked with out of the pool, so the
		// next one reads into a buffer of its own, as live sockets do.
		ledger.settle(int64(i+1)*parkedLeases()+int64(i), "idle sockets open")
		held = append(held, netapi.NewBuffer())
	}
	for _, b := range held {
		b.Release()
	}
	ledger.settle(n*parkedLeases(), "idle sockets open")
	after := heap()
	for _, s := range socks {
		_ = s.Close()
	}
	per := (int64(after) - int64(before)) / n
	t.Logf("%d KiB of heap per idle UDP socket", per/1024)
	if bound := (32 + 64*parkedLeases()) * 1024; per > bound { // 1 KiB measured (65 with the portable primitive)
		t.Fatalf("an idle UDP socket pins %d KiB of heap, want <= %d KiB", per/1024, bound/1024)
	}
}
