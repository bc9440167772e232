package bench

// The overload scenario drives the lane-prioritized bounded ingest
// (internal/lanes) past capacity over real loopback sockets — the
// PR 8 robustness workload behind BenchmarkOverloadControlP99 and the
// `starlink-bench -table o` report.
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
// uncontended baseline is about one service time and the acceptance
// ratio compares like with like.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// OverloadResult summarises one overload run.
type OverloadResult struct {
	// Factor is the configured arrival rate as a multiple of the
	// consumer's calibrated service rate (< 1 is an uncontended run).
	Factor float64
	// Senders and Packets shape the workload.
	Senders int
	Packets int
	// ServiceTime is the calibrated per-payload consumer cost.
	ServiceTime time.Duration
	// Received counts handler deliveries (sent minus what the paused
	// transports left to the kernel's UDP drop semantics).
	Received int
	// Processed counts payloads the consumer drained.
	Processed int
	// Lanes is the per-lane admission accounting of the queue.
	Lanes [lanes.NumLanes]lanes.Counters
	// MaxDepth is the high-water total queue depth; TotalCapacity the
	// hard ring bound it can never exceed (the bounded-memory witness).
	MaxDepth      int
	TotalCapacity int
	// Pauses counts gate pause transitions (watermark crossings).
	Pauses uint64
	// ControlP50/P99 and TelemetryP99 are arrival-to-processed latency
	// quantiles (queue wait plus the calibrated service cost).
	ControlP50   time.Duration
	ControlP99   time.Duration
	TelemetryP99 time.Duration
	// Elapsed covers the flood plus the post-flood drain.
	Elapsed time.Duration
}

type overloadItem struct {
	lane    lanes.Lane
	arrived time.Time
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

// RunOverload floods the gated ingest with `packets` datagrams from
// `senders` sender nodes, paced at `factor` times the consumer's
// calibrated service rate, and reports the queue's admission
// accounting and wait quantiles. factor < 1 yields the uncontended
// baseline the overloaded control-lane p99 is judged against.
func RunOverload(packets, senders int, factor float64) (OverloadResult, error) {
	if packets < 1 || senders < 1 || senders > 64 || factor <= 0 {
		return OverloadResult{}, fmt.Errorf("bench: overload wants packets >= 1, senders in 1..64, factor > 0 (got %d, %d, %g)",
			packets, senders, factor)
	}
	res := OverloadResult{
		Factor:        factor,
		Senders:       senders,
		Packets:       packets,
		ServiceTime:   calibrateOverloadWork(),
		TotalCapacity: int(lanes.NumLanes) * overloadPolicy.Capacity,
	}

	rt := realnet.New()
	gate := netapi.NewFlowGate()
	q := lanes.NewQueue[overloadItem](overloadPolicy, gate)
	node, err := rt.NewNode("10.0.0.5")
	if err != nil {
		return res, err
	}
	// Detached endpoints dispatch in parallel (each read loop gets a
	// private domain) instead of serializing on the node's root domain
	// — the receiver half of the PR 5 parallel ingress pipeline.
	detached := netapi.Detach(node)
	recvNode := netapi.Gated(detached, gate)

	var received atomic.Int64
	handle := func(pkt netapi.Packet) {
		if len(pkt.Data) == 0 {
			return
		}
		received.Add(1)
		// The item copies nothing out of pkt.Data, so the packet's
		// pooled buffer goes straight back to the runtime.
		lane := classifyOverloadByte(pkt.Data[0])
		q.Enqueue(lane, overloadItem{lane: lane, arrived: time.Now()})
		// The engine's ingest handler parks on locks and channels every
		// delivery; this closure would otherwise never yield, letting
		// one read loop replaying a kernel backlog monopolize a
		// single-core scheduler and charge its whole replay to the
		// queue waits of payloads already admitted.
		runtime.Gosched()
	}
	var endpoints []netapi.UDPSocket
	closeAll := func() {
		for _, s := range endpoints {
			_ = s.Close()
		}
	}
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
			closeAll()
			return res, err
		}
		endpoints = append(endpoints, sock)
	}
	defer closeAll()

	// Single consumer: strict-priority drain at the calibrated cost.
	var hists [lanes.NumLanes]*hist.Histogram
	for i := range hists {
		hists[i] = &hist.Histogram{}
	}
	scratch := make([]byte, overloadPayloadSize)
	var processed atomic.Int64
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		for {
			item, lane, ok := q.Dequeue()
			if !ok {
				return
			}
			overloadSink.Add(overloadWork(scratch))
			// Latency is arrival-to-processed: queue wait plus service.
			hists[lane].Record(time.Since(item.arrived))
			processed.Add(1)
			// The engine's ingest workers park at their queue between
			// payloads; the same cooperative point here lets the read
			// loops interleave with the consumer on one core instead of
			// being starved for a whole scheduler slice.
			runtime.Gosched()
		}
	}()

	// Paced flood: senders share one token clock targeting
	// factor / ServiceTime arrivals per second.
	targetRate := factor / res.ServiceTime.Seconds()
	payload := make([]byte, overloadPayloadSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var (
		sent     atomic.Int64
		sendWG   sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	start := time.Now()
	for si := 0; si < senders; si++ {
		sendNode, err := rt.NewNode(fmt.Sprintf("10.0.1.%d", si+1))
		if err != nil {
			return res, err
		}
		sock, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			return res, err
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
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("bench: overload sender %d: %w", si, err)
						}
						errMu.Unlock()
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
	res.Elapsed = time.Since(start)

	res.Lanes = q.Counters()
	res.MaxDepth = q.MaxDepth()
	res.Pauses = gate.Pauses()
	res.Received = int(received.Load())
	res.Processed = int(processed.Load())
	ctl := hists[lanes.Control].Snapshot()
	res.ControlP50 = ctl.Quantile(0.50)
	res.ControlP99 = ctl.Quantile(0.99)
	res.TelemetryP99 = hists[lanes.Telemetry].Snapshot().Quantile(0.99)

	// Stop the consumer; anything still queued (drain timeout) is
	// dropped on the floor by Close, which is fine post-measurement.
	q.Close(nil)
	consumerWG.Wait()
	return res, firstErr
}
