package bench

// The ingest-saturation scenario measures how fast the realnet runtime
// can push inbound datagrams through handler callbacks — the paper's
// Network Engine boundary (Fig. 6) under a multi-case dispatcher load.
// It is the workload behind BenchmarkParallelIngest and the
// `starlink-bench -table i` report.
//
// Topology: one receiver node opens N independent UDP endpoints (the
// shape of a provisioning dispatcher's shared entry listeners), and M
// sender nodes blast datagrams at them round-robin. Every received
// payload pays a fixed classification-sized CPU cost (a repeated FNV
// pass standing in for the signature index + header parse of a 7-case
// dispatcher) and is acknowledged, so each sender runs a window of one
// and loopback UDP never overflows its receive queue.
//
// Under the pre-PR5 contract every handler ran holding one global
// dispatcher mutex, so aggregate throughput was capped at a single
// core no matter how many endpoints existed; under per-endpoint serial
// execution the N endpoints dispatch in parallel and throughput scales
// with GOMAXPROCS. The receiver opts in through DetachEndpoints when
// the runtime offers it (the interface assertion keeps this file
// compilable against the pre-PR5 runtime, which is how the committed
// BENCH_PR5_BASELINE.txt numbers were captured).

import (
	"fmt"
	"sync"
	"sync/atomic"
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
	// multi-case signature index (a few microseconds).
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

// detachIngestEndpoints opts the receiver into per-endpoint parallel
// dispatch on runtimes that support it; on runtimes that serialise
// globally it is the identity.
func detachIngestEndpoints(n netapi.Node) netapi.Node {
	if d, ok := n.(interface{ DetachEndpoints() netapi.Node }); ok {
		return d.DetachEndpoints()
	}
	return n
}

// IngestResult summarises one ingest-saturation run.
type IngestResult struct {
	// Endpoints is the number of receiver UDP endpoints.
	Endpoints int
	// Senders is the number of concurrent sender goroutines.
	Senders int
	// Packets is the number of datagrams pushed through the ingress.
	Packets int
	// Elapsed is the wall-clock time of the sending phase only.
	Elapsed time.Duration
	// PacketsPerSec is Packets / Elapsed.
	PacketsPerSec float64
	// RecvBatches, RecvBatchPackets and RecvMultiBatches are the
	// process-wide batched-receive deltas over the run: recvmmsg calls
	// that returned datagrams, datagrams they carried, and calls that
	// carried more than one. All zero on the portable per-datagram
	// path.
	RecvBatches      uint64
	RecvBatchPackets uint64
	RecvMultiBatches uint64
	// Retransmits counts the datagrams senders sent again after
	// ingestRetransmitAfter without an ack; 0 unless the host dropped
	// datagrams.
	Retransmits uint64
	// MeanRecvBatch is RecvBatchPackets / RecvBatches — the realised
	// mean batch size. Under saturation it should clear 1: the whole
	// point of the recvmmsg hot path.
	MeanRecvBatch float64
}

// ingestRig is a ready-to-drive ingest topology: the receiver's
// endpoints and the senders' sockets are bound once so repeated run
// calls (benchmark iterations) measure only the ingress itself.
type ingestRig struct {
	rt        *realnet.Runtime
	recvNode  netapi.Node
	endpoints []netapi.UDPSocket
	senders   []*ingestSender
	handled   atomic.Int64
	// retransmits counts datagrams sent again across every run call.
	retransmits atomic.Uint64
	// lose is the number of datagrams the receiver still has to swallow
	// unacknowledged — the lost datagram of a busy host, on demand, for
	// the retransmission test.
	lose atomic.Int64
}

type ingestSender struct {
	node netapi.Node
	sock netapi.UDPSocket
	acks chan struct{}
}

// newIngestRig binds an ingest topology of `endpoints` receiver
// endpoints and `senders` sender sockets on one realnet runtime.
func newIngestRig(endpoints, senders int) (*ingestRig, error) {
	if endpoints < 1 || endpoints > 256 || senders < 1 || senders > 256 {
		return nil, fmt.Errorf("bench: endpoints and senders must be in 1..256 (got %d, %d)", endpoints, senders)
	}
	rig := &ingestRig{rt: realnet.New()}
	node, err := rig.rt.NewNode("10.0.0.5")
	if err != nil {
		return nil, err
	}
	rig.recvNode = detachIngestEndpoints(node)
	ack := []byte("ok")
	for i := 0; i < endpoints; i++ {
		// The handler replies on its own socket; an atomic cell closes
		// the bind-vs-first-datagram window under parallel dispatch.
		var cell atomic.Value
		sock, err := rig.recvNode.OpenUDP(0, func(pkt netapi.Packet) {
			if rig.lose.Load() > 0 && rig.lose.Add(-1) >= 0 {
				return
			}
			ingestSink.Add(ingestWork(pkt.Data))
			rig.handled.Add(1)
			if s, ok := cell.Load().(netapi.UDPSocket); ok {
				_ = s.Send(pkt.From, ack)
			}
		})
		if err != nil {
			rig.Close()
			return nil, err
		}
		cell.Store(sock)
		rig.endpoints = append(rig.endpoints, sock)
	}
	for i := 0; i < senders; i++ {
		node, err := rig.rt.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		if err != nil {
			rig.Close()
			return nil, err
		}
		// The send loop lets window+1 datagrams into flight before its
		// first await (it waits only from i >= ingestWindow), so the ack
		// channel needs one extra slot or a full burst would drop an ack.
		s := &ingestSender{node: node, acks: make(chan struct{}, ingestWindow+1)}
		sock, err := node.OpenUDP(0, func(pkt netapi.Packet) {
			select {
			case s.acks <- struct{}{}:
			default:
			}
		})
		if err != nil {
			rig.Close()
			return nil, err
		}
		s.sock = sock
		rig.senders = append(rig.senders, s)
	}
	return rig, nil
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
					firstErr = fmt.Errorf("bench: ingest sender %d: %w", si, err)
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

// Close releases every socket the rig bound.
func (rig *ingestRig) Close() {
	for _, s := range rig.senders {
		if s.sock != nil {
			_ = s.sock.Close()
		}
	}
	for _, sock := range rig.endpoints {
		_ = sock.Close()
	}
}

// RunParallelIngest drives the ingest-saturation scenario once:
// `packets` datagrams through `endpoints` receiver endpoints from
// `senders` concurrent senders over real loopback sockets.
func RunParallelIngest(endpoints, senders, packets int) (IngestResult, error) {
	if packets < 1 {
		return IngestResult{}, fmt.Errorf("bench: packets must be positive, got %d", packets)
	}
	rig, err := newIngestRig(endpoints, senders)
	if err != nil {
		return IngestResult{}, err
	}
	defer rig.Close()
	before := netapi.ReadIOStats()
	elapsed, err := rig.run(packets) // a fresh rig: its retransmit count is this run's
	after := netapi.ReadIOStats()
	res := IngestResult{
		Endpoints:        endpoints,
		Senders:          senders,
		Packets:          packets,
		Elapsed:          elapsed,
		RecvBatches:      after.RecvBatches - before.RecvBatches,
		RecvBatchPackets: after.RecvBatchPackets - before.RecvBatchPackets,
		RecvMultiBatches: after.RecvMultiBatches - before.RecvMultiBatches,
		Retransmits:      rig.retransmits.Load(),
	}
	if elapsed > 0 {
		res.PacketsPerSec = float64(packets) / elapsed.Seconds()
	}
	if res.RecvBatches > 0 {
		res.MeanRecvBatch = float64(res.RecvBatchPackets) / float64(res.RecvBatches)
	}
	return res, err
}
