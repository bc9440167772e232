package realnet_test

// The overload scenario drives the lane-prioritized bounded ingest
// (internal/lanes) past capacity over real loopback sockets — the
// PR 8 robustness workload behind TestRunOverloadShedsBounded and
// BenchmarkOverloadControlP99.
//
// Topology: one receiver node opens a few UDP endpoints feeding a
// single lanes.Queue; payloads classify by their first byte ('c'
// control, 'd' data, anything else telemetry). Control traffic gets a
// dedicated ungated endpoint — session entry stays live no matter how
// hard the bulk endpoints are pushed back — while the data/telemetry
// endpoints share the queue's flow gate. One consumer drains the
// queue in strict priority order, paying a calibrated per-payload CPU
// cost, so the queue's service rate is known; sender nodes blast a
// mixed workload paced at a multiple of that rate. Past the high
// watermark the flow gate pauses the bulk read loops (the kernel
// socket buffer, then the wire, absorb or drop the excess — UDP
// semantics end to end) and the full telemetry ring sheds oldest
// first, so queue memory stays bounded by the rings no matter how
// hard the senders push, while the control lane keeps its latency.
//
// Latency is arrival-to-processed (queue wait plus service), so the
// uncontended baseline is about one service time and the benchmark's
// p99-ratio compares like with like.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/hist"
	"starlink/internal/lanes"
	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

const (
	// overloadPayloadSize is the datagram size of the workload.
	overloadPayloadSize = 256
	// overloadWorkRounds fixes the consumer's per-payload CPU cost — a
	// heavy parse-translate-compose of about a millisecond — so the
	// queue's service rate sits far below what the loopback read path
	// delivers (the lane queue, not the wire, is the contended
	// resource) and the service time dominates scheduler round-robin
	// jitter even on a single-core machine.
	overloadWorkRounds = 3072
	// overloadEndpoints is the number of receiver UDP endpoints feeding
	// the queue: endpoint 0 carries control and is never gated, the
	// rest carry data/telemetry behind the flow gate (each paused read
	// loop may hold one in-flight datagram across a pause).
	overloadEndpoints = 4
	// overloadSenders is the number of sender nodes sharing the flood.
	overloadSenders = 8
	// overloadBurst is the sender pacing quantum: packets go out in
	// back-to-back bursts against a shared token clock, modelling the
	// bursty arrivals real discovery traffic has instead of a
	// metronome.
	overloadBurst = 8
	// overloadDrainTimeout bounds the post-flood wait for the queue to
	// empty.
	overloadDrainTimeout = 30 * time.Second
)

// overloadPolicy bounds the scenario's lane queue. The telemetry ring
// is deliberately smaller than the watermark headroom so both
// degradation mechanisms trigger under flood: the full telemetry ring
// sheds oldest-first, and total depth crossing High pauses the
// transports. The narrow High-Low gap keeps each post-resume delivery
// burst small, so the control payloads inside a burst wait behind only
// a handful of lane siblings and control p99 stays near its
// uncontended value even while telemetry sheds.
var overloadPolicy = lanes.Policy{Capacity: 256, High: 512, Low: 448, Mode: lanes.ShedOldest}

// overloadSink keeps the consumer's checksum loop observable so the
// compiler cannot elide overloadWork.
var overloadSink atomic.Uint64

// overloadWork models the per-payload consumer cost: a fixed number of
// FNV-1a passes over the scratch buffer.
func overloadWork(data []byte) uint64 {
	var h uint64 = 1469598103934665603
	for r := 0; r < overloadWorkRounds; r++ {
		for _, b := range data {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

// calibrateOverloadWork measures the consumer's per-payload cost, the
// denominator of the scenario's overload factor.
func calibrateOverloadWork() time.Duration {
	scratch := make([]byte, overloadPayloadSize)
	for i := range scratch {
		scratch[i] = byte(i * 17)
	}
	const rounds = 512
	start := time.Now()
	for i := 0; i < rounds; i++ {
		overloadSink.Add(overloadWork(scratch))
	}
	per := time.Since(start) / rounds
	if per <= 0 {
		per = time.Microsecond
	}
	return per
}

// overloadResult is what one overload run leaves behind.
type overloadResult struct {
	// counters is the per-lane admission accounting of the queue.
	counters [lanes.NumLanes]lanes.Counters
	// maxDepth is the high-water total queue depth.
	maxDepth int
	// pauses counts gate pause transitions (watermark crossings).
	pauses uint64
	// processed counts payloads the consumer drained.
	processed int
	// controlP99 is the control lane's arrival-to-processed latency
	// quantile (queue wait plus the calibrated service cost).
	controlP99 time.Duration
}

func classifyOverloadByte(b byte) lanes.Lane {
	switch b {
	case 'c':
		return lanes.Control
	case 'd':
		return lanes.Data
	default:
		return lanes.Telemetry
	}
}

// overloadMix assigns the i-th packet its lane byte: 10% control, 40%
// data, 50% telemetry — control well under the service rate even at
// the highest factor, data heavy enough to build real backlog.
func overloadMix(i int) byte {
	switch i % 10 {
	case 0:
		return 'c'
	case 1, 2, 3, 4:
		return 'd'
	default:
		return 't'
	}
}

// runOverload floods the gated ingest with `packets` datagrams from
// overloadSenders sender nodes, paced at `factor` times the consumer's
// calibrated service rate, and reports the queue's admission accounting
// and the control lane's p99. factor < 1 yields the uncontended baseline
// the benchmark prints the overloaded p99 beside.
func runOverload(tb testing.TB, packets int, factor float64) overloadResult {
	tb.Helper()
	var res overloadResult
	serviceTime := calibrateOverloadWork()

	rt := realnet.New()
	gate := netapi.NewFlowGate()
	// An item is its arrival time: the handler copies nothing out of
	// pkt.Data, so the packet's pooled buffer goes straight back to the
	// runtime.
	q := lanes.NewQueue[time.Time](overloadPolicy, gate)
	node, err := rt.NewNode("10.0.0.5")
	if err != nil {
		tb.Fatal(err)
	}
	// Detached endpoints dispatch in parallel (each read loop gets a
	// private domain) instead of serializing on the node's root domain
	// — the receiver half of the PR 5 parallel ingress pipeline.
	detached := netapi.Detach(node)
	recvNode := netapi.Gated(detached, gate)

	handle := func(pkt netapi.Packet) {
		if len(pkt.Data) == 0 {
			return
		}
		q.Enqueue(classifyOverloadByte(pkt.Data[0]), time.Now())
		// The engine's ingest handler parks on locks and channels every
		// delivery; this closure would otherwise never yield, letting
		// one read loop replaying a kernel backlog monopolize a
		// single-core scheduler and charge its whole replay to the
		// queue waits of payloads already admitted.
		runtime.Gosched()
	}
	var endpoints []netapi.UDPSocket
	defer func() {
		for _, s := range endpoints {
			_ = s.Close()
		}
	}()
	for i := 0; i < overloadEndpoints; i++ {
		// Endpoint 0 is the control plane's: opened outside the gate so
		// the watermark pause never stalls session entry. The bulk
		// endpoints open behind the gate.
		opener := recvNode
		if i == 0 {
			opener = detached
		}
		sock, err := opener.OpenUDP(0, handle)
		if err != nil {
			tb.Fatal(err)
		}
		endpoints = append(endpoints, sock)
	}

	// Single consumer: strict-priority drain at the calibrated cost.
	var controlLatency hist.Histogram
	scratch := make([]byte, overloadPayloadSize)
	var processed atomic.Int64
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		for {
			arrived, lane, ok := q.Dequeue()
			if !ok {
				return
			}
			overloadSink.Add(overloadWork(scratch))
			// Latency is arrival-to-processed: queue wait plus service.
			if lane == lanes.Control {
				controlLatency.Record(time.Since(arrived))
			}
			processed.Add(1)
			// The engine's ingest workers park at their queue between
			// payloads; the same cooperative point here lets the read
			// loops interleave with the consumer on one core instead of
			// being starved for a whole scheduler slice.
			runtime.Gosched()
		}
	}()
	// Stop the consumer on every path; anything still queued (drain
	// timeout) is dropped on the floor by Close, which is fine
	// post-measurement.
	defer func() {
		q.Close(nil)
		consumerWG.Wait()
	}()

	// Paced flood: senders share one token clock targeting
	// factor / serviceTime arrivals per second.
	targetRate := factor / serviceTime.Seconds()
	payload := make([]byte, overloadPayloadSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var (
		sent   atomic.Int64
		sendWG sync.WaitGroup
	)
	start := time.Now()
	for si := 0; si < overloadSenders; si++ {
		sendNode, err := rt.NewNode(fmt.Sprintf("10.0.1.%d", si+1))
		if err != nil {
			tb.Fatal(err)
		}
		sock, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			tb.Fatal(err)
		}
		sendWG.Add(1)
		go func(si int, sock netapi.UDPSocket) {
			defer sendWG.Done()
			defer sock.Close()
			buf := append([]byte(nil), payload...)
			for {
				// Claim a burst of packet indexes from the shared clock,
				// sleep until the burst's token time, then blast it
				// back-to-back.
				first := int(sent.Add(overloadBurst)) - overloadBurst
				if first >= packets {
					return
				}
				due := start.Add(time.Duration(float64(first) / targetRate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				for i := first; i < first+overloadBurst && i < packets; i++ {
					buf[0] = overloadMix(i)
					// Control rides its dedicated ungated endpoint; bulk
					// traffic spreads over the gated ones.
					ep := 1 + i%(len(endpoints)-1)
					if buf[0] == 'c' {
						ep = 0
					}
					if err := sock.Send(endpoints[ep].LocalAddr(), buf); err != nil {
						tb.Errorf("overload sender %d: %v", si, err)
						return
					}
				}
			}
		}(si, sock)
	}
	sendWG.Wait()

	// Drain: wait for the backlog (and any datagrams still in kernel
	// buffers) to clear before snapshotting.
	deadline := time.Now().Add(overloadDrainTimeout)
	for q.Depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	res.counters = q.Counters()
	res.maxDepth = q.MaxDepth()
	res.pauses = gate.Pauses()
	res.processed = int(processed.Load())
	res.controlP99 = controlLatency.Snapshot().Quantile(0.99)
	return res
}

func TestRunOverloadShedsBounded(t *testing.T) {
	res := runOverload(t, 4000, 4.0)
	tel, ctl := res.counters[lanes.Telemetry], res.counters[lanes.Control]
	if tel.Shed == 0 {
		t.Errorf("no telemetry shed at 4x overload: %+v", res)
	}
	if ctl.Shed != 0 {
		t.Errorf("control shed %d payloads; control must degrade last", ctl.Shed)
	}
	// The rings are the hard bound on queue memory, whatever the senders do.
	if bound := int(lanes.NumLanes) * overloadPolicy.Capacity; res.maxDepth > bound {
		t.Errorf("max depth %d exceeded the ring bound %d", res.maxDepth, bound)
	}
	if res.pauses == 0 {
		t.Error("the high watermark never paused the transports")
	}
	if res.processed == 0 || res.controlP99 == 0 {
		t.Errorf("degenerate run: %+v", res)
	}
}

// BenchmarkOverloadControlP99 reports the control lane's
// arrival-to-processed p99 under a 4x over-capacity flood as its ns/op,
// alongside the uncontended (0.5x) p99 and the shed/pause evidence. b.N
// is the flood's packet count (clamped up so quantiles have samples
// behind them at -benchtime=1x); the baseline run is smaller because its
// paced arrival rate is an order of magnitude lower. For local profiling:
// p99-ratio read 0.86–3.05 over five runs of one commit on a shared
// 2-vCPU host, because the baseline is as noisy as the flood, so nothing
// asserts it.
func BenchmarkOverloadControlP99(b *testing.B) {
	packets := b.N
	if packets < 2048 {
		packets = 2048
	}
	basePackets := packets / 4
	if basePackets < 1024 {
		basePackets = 1024
	}
	base := runOverload(b, basePackets, 0.5)
	b.ResetTimer()
	res := runOverload(b, packets, 4.0)
	b.StopTimer()
	if res.counters[lanes.Telemetry].Shed == 0 {
		b.Fatal("flood shed no telemetry; the scenario is not overloaded")
	}
	b.ReportMetric(float64(res.controlP99.Nanoseconds()), "ns/op")
	b.ReportMetric(float64(base.controlP99.Nanoseconds()), "base-p99-ns")
	b.ReportMetric(float64(res.controlP99)/float64(base.controlP99), "p99-ratio")
	b.ReportMetric(float64(res.counters[lanes.Telemetry].Shed), "shed")
	b.ReportMetric(float64(res.maxDepth), "maxdepth")
	b.ReportMetric(float64(res.pauses), "pauses")
}
