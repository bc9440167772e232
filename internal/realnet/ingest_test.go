package realnet_test

// The ingest-saturation rig: how fast the realnet runtime pushes inbound
// datagrams through handler callbacks — the paper's Network Engine
// boundary (Fig. 6) under a multi-case dispatcher load, and the only
// multi-P real-socket load in the repository (the repository benchmark
// runs one P with one interaction outstanding).
//
// Topology: one receiver node opens N independent UDP endpoints (the
// shape of a provisioning dispatcher's shared entry listeners), and M
// sender nodes blast datagrams at them round-robin. Every received
// payload pays a fixed classification-sized CPU cost (a repeated FNV
// pass standing in for the classification + header parse of a 7-case
// dispatcher) and is acknowledged, so each sender runs a bounded window
// and loopback UDP never overflows its receive queue. The receiver's
// endpoints are detached, so they dispatch in parallel and throughput
// scales with GOMAXPROCS instead of with one dispatcher mutex.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

const (
	// ingestPayloadSize is the datagram size of the workload — the
	// regime of an SLP/SSDP discovery request.
	ingestPayloadSize = 512
	// ingestWorkRounds fixes the per-payload CPU cost at roughly the
	// cost of classifying and header-parsing the datagram against a
	// multi-case dispatcher (a few microseconds).
	ingestWorkRounds = 16
	// ingestAckTimeout bounds how long a sender waits for an expected
	// ack, retransmissions included, before declaring the run broken.
	ingestAckTimeout = 5 * time.Second
	// ingestRetransmitAfter is how long a sender waits for an expected
	// ack before sending its oldest unacknowledged datagram again: one
	// datagram (or ack) lost to a full socket buffer — which happens
	// when the host is busy with other test binaries — would otherwise
	// stall the sender's window for good.
	ingestRetransmitAfter = 50 * time.Millisecond
	// ingestWindow is each sender's in-flight window. Acks pace the
	// senders so loopback receive queues never overflow — the bound
	// keeps per-endpoint in-flight bytes far below the default socket
	// buffer — while a window deeper than one keeps the measurement an
	// ingest-throughput number rather than a round-trip-latency one.
	ingestWindow = 8
)

// ingestSink keeps the checksum loop observable so the compiler cannot
// elide ingestWork.
var ingestSink atomic.Uint64

// ingestWork models the per-payload dispatcher cost: a fixed number of
// FNV-1a passes over the datagram.
func ingestWork(data []byte) uint64 {
	var h uint64 = 1469598103934665603
	for r := 0; r < ingestWorkRounds; r++ {
		for _, b := range data {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

// ingestRig is a ready-to-drive ingest topology: the receiver's
// endpoints and the senders' sockets are bound once so repeated run
// calls (benchmark iterations) measure only the ingress itself.
type ingestRig struct {
	endpoints []netapi.UDPSocket
	senders   []*ingestSender
	// retransmits counts datagrams sent again across every run call.
	retransmits atomic.Uint64
	// lose is the number of datagrams the receiver still has to swallow
	// unacknowledged — the lost datagram of a busy host, on demand, for
	// the retransmission test.
	lose atomic.Int64
}

type ingestSender struct {
	sock netapi.UDPSocket
	acks chan struct{}
}

// newIngestRig binds an ingest topology of `endpoints` receiver
// endpoints and `senders` sender sockets on one realnet runtime; the
// test's cleanup closes every socket.
func newIngestRig(tb testing.TB, endpoints, senders int) *ingestRig {
	tb.Helper()
	rig := &ingestRig{}
	tb.Cleanup(func() {
		for _, s := range rig.senders {
			_ = s.sock.Close()
		}
		for _, sock := range rig.endpoints {
			_ = sock.Close()
		}
	})
	rt := realnet.New()
	node, err := rt.NewNode("10.0.0.5")
	if err != nil {
		tb.Fatal(err)
	}
	recvNode := netapi.Detach(node)
	ack := []byte("ok")
	for i := 0; i < endpoints; i++ {
		// The handler replies on its own socket; an atomic cell closes
		// the bind-vs-first-datagram window under parallel dispatch.
		var cell atomic.Value
		sock, err := recvNode.OpenUDP(0, func(pkt netapi.Packet) {
			if rig.lose.Load() > 0 && rig.lose.Add(-1) >= 0 {
				return
			}
			ingestSink.Add(ingestWork(pkt.Data))
			if s, ok := cell.Load().(netapi.UDPSocket); ok {
				_ = s.Send(pkt.From, ack)
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
		cell.Store(sock)
		rig.endpoints = append(rig.endpoints, sock)
	}
	for i := 0; i < senders; i++ {
		node, err := rt.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		if err != nil {
			tb.Fatal(err)
		}
		// The send loop lets window+1 datagrams into flight before its
		// first await (it waits only from i >= ingestWindow), so the ack
		// channel needs one extra slot or a full burst would drop an ack.
		s := &ingestSender{acks: make(chan struct{}, ingestWindow+1)}
		sock, err := node.OpenUDP(0, func(pkt netapi.Packet) {
			select {
			case s.acks <- struct{}{}:
			default:
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
		s.sock = sock
		rig.senders = append(rig.senders, s)
	}
	return rig
}

// run pushes `packets` datagrams through the ingress, split across the
// rig's senders, and returns the elapsed wall-clock time.
func (rig *ingestRig) run(packets int) (time.Duration, error) {
	payload := make([]byte, ingestPayloadSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	start := time.Now()
	for si, s := range rig.senders {
		quota := packets / len(rig.senders)
		if si < packets%len(rig.senders) {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, s *ingestSender, quota int) {
			defer wg.Done()
			fail := func(err error) {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("ingest sender %d: %w", si, err)
				}
				errMu.Unlock()
			}
			// Drain any ack left over from a previous run call.
			for {
				select {
				case <-s.acks:
					continue
				default:
				}
				break
			}
			send := func(i int) bool {
				dst := rig.endpoints[(si+i)%len(rig.endpoints)].LocalAddr()
				if err := s.sock.Send(dst, payload); err != nil {
					fail(err)
					return false
				}
				return true
			}
			retry := time.NewTimer(ingestRetransmitAfter)
			defer retry.Stop()
			acked := 0 // acks are anonymous: datagram `acked` is the oldest outstanding
			awaitAck := func() bool {
				deadline := time.Now().Add(ingestAckTimeout)
				for {
					retry.Reset(ingestRetransmitAfter)
					select {
					case <-s.acks:
						acked++
						return true
					case <-retry.C:
						if time.Now().After(deadline) {
							fail(fmt.Errorf("no ack within %s", ingestAckTimeout))
							return false
						}
						rig.retransmits.Add(1)
						if !send(acked) {
							return false
						}
					}
				}
			}
			for i := 0; i < quota; i++ {
				if !send(i) {
					return
				}
				if i >= ingestWindow && !awaitAck() {
					return
				}
			}
			// Drain the window's tail.
			tail := quota
			if tail > ingestWindow {
				tail = ingestWindow
			}
			for i := 0; i < tail; i++ {
				if !awaitAck() {
					return
				}
			}
		}(si, s, quota)
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// Structural pin for the recvmmsg fast path: under ingest saturation the
// kernel must actually hand the read loops multi-datagram batches. If a
// refactor quietly degrades the hot path to one datagram per syscall,
// throughput drifts slowly but this test fails immediately. The
// transport counters are process-wide, so the test reads them around its
// own run.
func TestIngestBatchingEngages(t *testing.T) {
	if !realnet.Batched() {
		t.Skip("portable receive primitive: one datagram per read (non-Linux or starlink.nobatch)")
	}
	if testing.Short() {
		t.Skip("saturation run")
	}
	rig := newIngestRig(t, 4, 16)
	before := netapi.ReadIOStats()
	if _, err := rig.run(20000); err != nil {
		t.Fatal(err)
	}
	after := netapi.ReadIOStats()
	batches := after.RecvBatches - before.RecvBatches
	packets := after.RecvBatchPackets - before.RecvBatchPackets
	multi := after.RecvMultiBatches - before.RecvMultiBatches
	t.Logf("ingest: %d recv batches carrying %d datagrams (%d multi), %d retransmitted",
		batches, packets, multi, rig.retransmits.Load())
	if batches == 0 {
		t.Fatal("no batched receives recorded: the recvmmsg path never engaged")
	}
	if multi == 0 {
		t.Fatal("every recvmmsg call returned a single datagram: batching is structurally dead")
	}
	// Saturated loopback ingest with an 8-deep window per sender backs
	// datagrams up in the socket buffer; a healthy batch loop amortises
	// visibly above one datagram per wakeup.
	if mean := float64(packets) / float64(batches); mean <= 1.05 {
		t.Fatalf("mean recv batch size %.3f, want > 1.05 under saturation", mean)
	}
}

// A datagram the host drops must cost its sender one retransmission
// timeout, not the run: senders count acks, so before they retransmitted
// a single loss stalled the window until the 5 s ack timeout failed it.
func TestIngestRetransmitsLostDatagram(t *testing.T) {
	rig := newIngestRig(t, 2, 4)
	const lost = 3
	rig.lose.Store(lost)
	start := time.Now()
	if _, err := rig.run(400); err != nil {
		t.Fatal(err)
	}
	if got := rig.retransmits.Load(); got < lost {
		t.Fatalf("retransmits = %d, want at least the %d datagrams lost", got, lost)
	}
	if d := time.Since(start); d >= ingestAckTimeout {
		t.Fatalf("run took %s: the losses were waited out, not retransmitted", d)
	}
}

// BenchmarkParallelIngest is the ingest-saturation scenario: 8 endpoints
// × 32 senders over real loopback sockets, with a classification-sized
// CPU cost per datagram. Under the retired global dispatcher lock this
// could not exceed one core; per-endpoint serial execution lets it scale
// with GOMAXPROCS. For local profiling — nothing in CI compares its
// timing.
func BenchmarkParallelIngest(b *testing.B) {
	rig := newIngestRig(b, 8, 32)
	b.ResetTimer()
	elapsed, err := rig.run(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sec := elapsed.Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "pkts/s")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}
