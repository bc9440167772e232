package starlink

import (
	"sort"
	"time"

	"starlink/internal/engine"
	"starlink/internal/hist"
	"starlink/internal/lanes"
	"starlink/internal/netapi"
	"starlink/internal/provision"
	"starlink/internal/trace"
)

// LatencyBucket is one cumulative histogram bucket: Count samples were
// ≤ UpperBound. Buckets nest Prometheus-style — each Count includes
// every smaller bucket's samples.
type LatencyBucket struct {
	UpperBound time.Duration
	Count      uint64
}

// StageLatency summarises the latency distribution of one pipeline
// stage (or of whole sessions, for the "session" row). Quantiles are
// log-linear histogram estimates with ≤6.25% relative error; Buckets
// is the fixed cumulative ladder the Prometheus exposition uses,
// exact at every bound.
type StageLatency struct {
	// Stage names the pipeline stage: "classify", "recv", "parse",
	// "transition", "translate", "compose", "send", or "session" for
	// the whole-session distribution (the paper's §VI translation time).
	Stage string
	// Count and Sum accumulate over all recorded samples.
	Count uint64
	Sum   time.Duration
	// P50, P90 and P99 are quantile estimates (upper bucket bounds).
	P50, P90, P99 time.Duration
	// Buckets is the cumulative distribution over the fixed ladder.
	Buckets []LatencyBucket
}

// SessionMetrics is a consistent snapshot of one deployment's (or one
// case's) session counters.
type SessionMetrics struct {
	// Live is the number of sessions currently executing.
	Live int
	// Completed and Failed count finished sessions.
	Completed int
	Failed    int
	// Rejected counts initiator requests refused by the max-sessions
	// bound (see WithMaxSessions).
	Rejected int
	// DrainRejected counts initiator requests refused because the
	// deployment was draining.
	DrainRejected int
	// Dropped counts payloads discarded from full ingest queues or
	// beyond a session's queue cap (backpressure; UDP semantics end to
	// end).
	Dropped int
	// ParseErrors counts payloads no parser accepted.
	ParseErrors int
	// Ignored counts well-formed payloads no session wanted.
	Ignored int
	// Ingested counts payloads accepted off the deployment's entry
	// listeners; IngestedBatched counts the subset delivered by a
	// multi-packet batched receive syscall (recvmmsg) — nonzero only
	// on runtimes with the batched fast path, under enough load for
	// datagrams to queue between reads.
	Ingested        int
	IngestedBatched int
	// Stale counts replies that answered no current holder of the
	// requester socket they arrived on — late or duplicated replies to
	// an earlier session, or a peer that does not echo the transaction
	// id its color declares. Dropped, never delivered.
	Stale int
	// RequesterLends counts sessions that borrowed a requester socket
	// kept open across sessions (colors declaring a txid),
	// RequesterOpens the sockets opened for lending, and RequestersIdle
	// those open with no borrower now (after Close: the number closed).
	RequesterLends int
	RequesterOpens int
	RequestersIdle int
}

// add accumulates per-case metrics into an aggregate.
func (m SessionMetrics) add(o SessionMetrics) SessionMetrics {
	m.Live += o.Live
	m.Completed += o.Completed
	m.Failed += o.Failed
	m.Rejected += o.Rejected
	m.DrainRejected += o.DrainRejected
	m.Dropped += o.Dropped
	m.ParseErrors += o.ParseErrors
	m.Ignored += o.Ignored
	m.Ingested += o.Ingested
	m.IngestedBatched += o.IngestedBatched
	m.Stale += o.Stale
	m.RequesterLends += o.RequesterLends
	m.RequesterOpens += o.RequesterOpens
	m.RequestersIdle += o.RequestersIdle
	return m
}

// DispatchMetrics is a consistent snapshot of the payload classification
// counters of a deployment's entry listeners — a bridge's as much as a
// dispatcher's: both classify every entry payload before handing it to
// a case.
type DispatchMetrics struct {
	// Dispatched counts payloads a case's engine accepted.
	Dispatched int
	// Ambiguous counts payloads that matched more than one case (each
	// was still dispatched, deterministically).
	Ambiguous int
	// Unroutable counts payloads that classified under some candidate
	// protocol but matched no case's entry message and no awaiting
	// session.
	Unroutable int
	// ParseErrors counts payloads no candidate classifier accepted.
	ParseErrors int
	// Suppressed counts the deployment's own multicast requests heard
	// back on shared listeners (never re-bridged: that would loop).
	Suppressed int
	// Rejected counts payloads that classified to a case whose engine
	// refused them outright (already closed).
	Rejected int
	// FastPath counts classified payloads, the sum of Dispatched,
	// Rejected, Unroutable and ParseErrors: every candidate parser reads
	// the message-selection rule field alone, with no parse. SlowPath
	// is always 0: there is no other path.
	FastPath int
	SlowPath int
	// FastPathLatency is the latency distribution of the classification
	// decision itself; SlowPathLatency stays empty.
	FastPathLatency StageLatency
	SlowPathLatency StageLatency
}

// LaneMetrics is a consistent snapshot of one ingest lane's admission
// accounting (see WithLanePolicy). One row per lane, priority order:
// "control", "data", "telemetry".
type LaneMetrics struct {
	// Lane names the lane: "control", "data" or "telemetry".
	Lane string
	// Depth is the number of payloads queued at snapshot time; Capacity
	// is the lane's ring bound (summed across ingest workers).
	Depth    int
	Capacity int
	// Admitted counts payloads accepted into the lane; Deferred counts
	// admissions that happened while the lane was pressured (the
	// transport gate was holding read loops paused); Shed counts
	// payloads dropped by the watermark policy, each surfaced as a drop
	// tagged ErrOverloaded.
	Admitted int
	Deferred int
	Shed     int
	// Wait is the queue-wait distribution: listener arrival to
	// ingest-worker pickup. Its Stage field repeats the lane name.
	Wait StageLatency
}

// Metrics is one deployment's full observability snapshot: lifecycle
// state, aggregate and per-case session counters, and the
// classification counters of its entry listeners. Obtain it from
// Deployment.Metrics at any time, from any goroutine.
type Metrics struct {
	// State is the deployment's lifecycle state at snapshot time.
	State State
	// Sessions aggregates the session counters across every case.
	Sessions SessionMetrics
	// Dispatch holds the classification counters of the deployment's
	// entry listeners.
	Dispatch DispatchMetrics
	// Cases breaks the session counters down per hosted case.
	Cases map[string]SessionMetrics
	// Latency aggregates the staged latency distributions across every
	// case: one row per pipeline stage in pipeline order, then the
	// "session" row (whole-session durations).
	Latency []StageLatency
	// CaseLatency breaks the staged latency distributions down per
	// hosted case, same row layout as Latency.
	CaseLatency map[string][]StageLatency
	// Lanes aggregates the ingest-lane admission counters across every
	// case, one row per lane in priority order (control, data,
	// telemetry).
	Lanes []LaneMetrics
	// Transport is the process-wide transport syscall accounting —
	// batched vs per-datagram receives and sends, vectored stream
	// flushes. Process-global (all deployments in the process share
	// the transport layer), monotonic since process start.
	Transport TransportMetrics
}

// metricsOf builds the public snapshot of a deployment — a bridge or a
// dispatcher, both a provision.Dispatcher underneath — from the internal
// one. The counter blocks convert struct to struct — the internal
// types mirror the public ones field for field, so a counter added on one
// side only stops compiling here instead of being silently dropped.
func metricsOf(s provision.Snapshot) Metrics {
	// DispatchMetrics is DispatchCounters plus the two path counts and
	// the two latency rows.
	dc := struct {
		Dispatched, Ambiguous, Unroutable, ParseErrors, Suppressed, Rejected int
	}(s.Dispatch)
	m := Metrics{
		State: stateOf(s.State),
		Dispatch: DispatchMetrics{
			Dispatched:      dc.Dispatched,
			Ambiguous:       dc.Ambiguous,
			Unroutable:      dc.Unroutable,
			ParseErrors:     dc.ParseErrors,
			Suppressed:      dc.Suppressed,
			Rejected:        dc.Rejected,
			FastPath:        dc.Dispatched + dc.Rejected + dc.Unroutable + dc.ParseErrors,
			FastPathLatency: stageLatencyOf("classify", s.ClassifyFast),
			SlowPathLatency: stageLatencyOf("classify", hist.Snapshot{}),
		},
		Cases:       make(map[string]SessionMetrics, len(s.Cases)),
		CaseLatency: make(map[string][]StageLatency, len(s.Cases)),
		Transport:   TransportMetrics(netapi.ReadIOStats()),
	}
	var latAgg engine.LatencyDump
	var laneAgg engine.LaneDump
	for name, c := range s.Cases {
		sm := SessionMetrics(c.Counters)
		m.Cases[name] = sm
		m.Sessions = m.Sessions.add(sm)
		m.CaseLatency[name] = latencyRowsOf(c.Latency)
		m.Latency = m.CaseLatency[name]
		latAgg.Merge(c.Latency)
		laneAgg.Merge(c.Lanes)
	}
	// The aggregate over one case is that case's rows, set above; rendering
	// rows (quantiles and a bucket ladder per stage) is most of what a
	// Metrics read costs, so it is not done twice.
	if len(s.Cases) != 1 {
		m.Latency = latencyRowsOf(latAgg)
	}
	m.Lanes = laneRowsOf(laneAgg)
	return m
}

// sessionsOf lists live sessions grouped by case name (sorted), oldest
// first within each.
func sessionsOf(byCase map[string][]engine.LiveSession) []SessionInfo {
	names := make([]string, 0, len(byCase))
	for name := range byCase {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []SessionInfo
	for _, name := range names {
		for _, s := range byCase[name] {
			out = append(out, SessionInfo{
				Case:   name,
				Key:    s.Key,
				Origin: s.Origin.String(),
				Start:  s.Start,
				Trace:  traceEventsOf(s.Trace),
			})
		}
	}
	return out
}

// stageLatencyOf converts one histogram snapshot to the public form.
func stageLatencyOf(stage string, s hist.Snapshot) StageLatency {
	ladder := hist.Ladder()
	cum := s.Cumulative(ladder)
	buckets := make([]LatencyBucket, len(ladder))
	for i, b := range ladder {
		buckets[i] = LatencyBucket{UpperBound: b, Count: cum[i]}
	}
	return StageLatency{
		Stage:   stage,
		Count:   s.Count,
		Sum:     s.Sum,
		P50:     s.Quantile(0.50),
		P90:     s.Quantile(0.90),
		P99:     s.Quantile(0.99),
		Buckets: buckets,
	}
}

// latencyRowsOf converts an engine latency dump to the public rows:
// the pipeline stages in order, then the "session" row.
func latencyRowsOf(d engine.LatencyDump) []StageLatency {
	rows := make([]StageLatency, 0, trace.NumStages+1)
	for i := range d.Stages {
		rows = append(rows, stageLatencyOf(trace.Stage(i).String(), d.Stages[i]))
	}
	rows = append(rows, stageLatencyOf("session", d.Session))
	return rows
}

// laneRowsOf converts an engine lane dump to the public rows, one per
// lane in priority order.
func laneRowsOf(d engine.LaneDump) []LaneMetrics {
	rows := make([]LaneMetrics, 0, lanes.NumLanes)
	for i := range d.Counters {
		c := d.Counters[i]
		rows = append(rows, LaneMetrics{
			Lane:     lanes.Lane(i).String(),
			Depth:    c.Depth,
			Capacity: c.Capacity,
			Admitted: int(c.Admitted),
			Deferred: int(c.Deferred),
			Shed:     int(c.Shed),
			Wait:     stageLatencyOf(lanes.Lane(i).String(), d.Wait[i]),
		})
	}
	return rows
}

// TransportMetrics is the process-wide transport syscall accounting:
// how ingress and egress traffic mapped onto syscalls. It pins the
// batched I/O fast paths structurally — RecvBatchPackets across
// RecvBatches gives the mean receive batch size, and
// RecvMultiBatches > 0 proves multi-packet batches actually happened —
// independent of wall-clock noise. Counters are process-global and
// monotonic; runtimes without the batched paths leave the batch
// counters at zero and count singles.
type TransportMetrics struct {
	// RecvBatches counts batched receive syscalls (recvmmsg);
	// RecvBatchPackets counts the datagrams they returned;
	// RecvMultiBatches counts the batches carrying more than one
	// datagram. RecvSingles counts per-datagram receives (portable
	// path).
	RecvBatches      uint64
	RecvBatchPackets uint64
	RecvMultiBatches uint64
	RecvSingles      uint64
	// SendBatches counts batched send syscalls (sendmmsg, multicast
	// fan-out); SendBatchPackets counts the datagrams they carried;
	// SendSingles counts per-datagram sends.
	SendBatches      uint64
	SendBatchPackets uint64
	SendSingles      uint64
	// StreamFlushes counts coalesced stream-writer flushes;
	// StreamFlushChunks counts the queued chunks those flushes drained
	// in one vectored write (writev) each.
	StreamFlushes     uint64
	StreamFlushChunks uint64
}
