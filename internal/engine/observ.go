package engine

import (
	"sort"
	"time"

	"starlink/internal/hist"
	"starlink/internal/lanes"
	"starlink/internal/netapi"
	"starlink/internal/trace"
)

// Sink receives the events an engine reports, each tagged with the name
// of the merged automaton the engine runs. A nil sink costs one branch
// per event. The engine calls it from whichever goroutine the event
// happens on — an ingest worker for everything a session does, a
// transport callback for a payload shed at enqueue, the caller of Close
// for the sessions it tears down — and does not serialise the calls:
// ordering and fan-out are the business of whoever configured the sink.
// A worker runs nothing else meanwhile, so keep callbacks fast, and never
// call Close or Shutdown synchronously from inside one. A case's
// Deployed and Undeployed are the dispatcher's to report: see
// provision.Sink.
type Sink interface {
	// SessionStart fires when an initiator request is admitted as a new
	// session; SessionEnd as each session finishes.
	SessionStart(caseName string, origin netapi.Addr, at time.Time)
	SessionEnd(caseName string, s SessionStats)
	// Dropped fires when a payload or session is refused, with the reason
	// classified under the structured taxonomy: serrors.ErrOverloaded for
	// capacity rejections and queue overflow, serrors.ErrDraining for
	// initiator requests arriving mid-shutdown.
	Dropped(caseName string, origin netapi.Addr, reason error)
}

// Counters are the engine's session and payload counters, field for
// field the public SessionMetrics.
type Counters struct {
	// Live is the number of sessions currently registered.
	Live      int
	Completed int
	Failed    int
	Rejected  int
	// DrainRejected counts initiator requests that arrived while the
	// engine was draining and were therefore refused.
	DrainRejected int
	Dropped       int
	ParseErrors   int
	Ignored       int
	// Ingested counts payloads injected off the entry listeners;
	// IngestedBatched counts the subset delivered by a multi-packet
	// batched receive syscall (recvmmsg) — the structural evidence
	// that transport batching engages under load.
	Ingested        int
	IngestedBatched int
	// Stale counts requester payloads that answered no current holder of
	// the channel they arrived on; dropped, never delivered.
	Stale int
	// RequesterLends counts sessions handed a lent requester socket,
	// RequesterOpens the sockets opened for lending and RequestersIdle
	// those open with no holder now — after Close, the number it closed.
	RequesterLends int
	RequesterOpens int
	RequestersIdle int
}

// LatencyDump is a snapshot of the engine's staged latency histograms:
// one distribution per pipeline stage plus the whole-session
// distribution (the paper's §VI translation time).
type LatencyDump struct {
	Stages  [trace.NumStages]hist.Snapshot
	Session hist.Snapshot
}

// Merge folds another dump into d (per-case → aggregate rollups).
func (d *LatencyDump) Merge(o LatencyDump) {
	for i := range d.Stages {
		d.Stages[i].Merge(o.Stages[i])
	}
	d.Session.Merge(o.Session)
}

// LaneDump is a snapshot of the engine's ingest-lane accounting: the
// per-lane admit/defer/shed counters and depths rolled up across the
// per-worker queues, plus the per-lane queue-wait distributions
// (listener arrival to ingest-worker pickup).
type LaneDump struct {
	Counters [lanes.NumLanes]lanes.Counters
	Wait     [lanes.NumLanes]hist.Snapshot
}

// Merge folds another dump into d (per-case → aggregate rollups).
func (d *LaneDump) Merge(o LaneDump) {
	d.Counters = lanes.Sum(d.Counters, o.Counters)
	for i := range d.Wait {
		d.Wait[i].Merge(o.Wait[i])
	}
}

// Snapshot is everything the engine exposes about itself at one instant.
// Two reads fill it, split by what they cost: Counts fills the counters
// and gauges — cheap enough to poll — and Snapshot adds the
// distributions, whose read merges every histogram shard. Both are safe
// from any goroutine at any time, including after Close, when they keep
// returning the final values.
type Snapshot struct {
	State State
	Counters
	// SemInUse is the number of max-sessions slots currently held and
	// LaneDepth the number of payloads queued across every ingest lane
	// queue. After a quiesced teardown both must read zero, along with
	// Live, or the run leaked a slot or a queued payload (the DST
	// invariant surface).
	SemInUse  int
	LaneDepth int
	// Messages is the message balance: messages the workers drew (a
	// parse, a composed send) and have not released. It reads zero at
	// quiescence with no session live and after Close, or some owner
	// dropped one.
	Messages int
	// Framing counts requester stream connections dropped because
	// where their next frame starts was lost.
	Framing int

	// Latency and Lanes are left zero by Counts.
	Latency LatencyDump
	Lanes   LaneDump
}

// Counts reads the engine's state, counters and gauges. Live is sampled
// under finishMu, which orders a session's finish, so a finishing session
// is counted in exactly one of Live or Completed/Failed.
func (e *Engine) Counts() Snapshot {
	s := Snapshot{State: e.State(), SemInUse: len(e.sem)}
	e.finishMu.Lock()
	s.Live, s.Completed, s.Failed = e.table.live(), e.completed, e.failed
	e.finishMu.Unlock()
	s.Rejected = int(e.rejected.Load())
	s.DrainRejected = int(e.drainRejected.Load())
	s.Dropped = int(e.dropped.Load())
	s.ParseErrors = int(e.parseErrors.Load())
	s.Ignored = int(e.ignored.Load())
	s.Ingested = int(e.ingestTotal.Load())
	s.IngestedBatched = int(e.ingestBatched.Load())
	s.Stale = int(e.stale.Load())
	s.RequesterLends = int(e.requesterLends.Load())
	s.RequesterOpens = int(e.requesterOpens.Load())
	s.RequestersIdle = int(e.idleRequesters.Load())
	s.Framing = e.net.FramingDrops()
	for _, w := range e.workers {
		s.LaneDepth += w.q.Depth()
		s.Messages += int(w.msgs.Load())
	}
	return s
}

// Snapshot reads everything Counts does plus the staged latency
// histograms and the ingest-lane accounting.
func (e *Engine) Snapshot() Snapshot {
	s := e.Counts()
	for i := range e.stageHists {
		s.Latency.Stages[i] = e.stageHists[i].Snapshot()
	}
	s.Latency.Session = e.sessHist.Snapshot()
	perQueue := make([][lanes.NumLanes]lanes.Counters, len(e.workers))
	for i, w := range e.workers {
		perQueue[i] = w.q.Counters()
	}
	s.Lanes.Counters = lanes.Sum(perQueue...)
	for i := range s.Lanes.Wait {
		s.Lanes.Wait[i] = e.laneHists[i].Snapshot()
	}
	return s
}

// RecordClassify attributes a dispatcher classification latency to this
// engine's case (the dispatcher measures it; the engine owns the
// per-case histogram it lands in).
func (e *Engine) RecordClassify(d time.Duration) {
	e.stageHists[trace.StageClassify].Record(d)
}

// LiveSession describes one currently registered session: its table
// key, origin, start time and — when the flight recorder is enabled —
// the trace events recorded so far.
type LiveSession struct {
	Key    string
	Origin netapi.Addr
	Start  time.Time
	Trace  []trace.Event
}

// LiveSessions lists the engine's registered sessions, oldest first.
// The listing reads only session state published before table insertion
// (key, origin, start) plus the wait-free recorder, so it is safe while
// sessions run; a live trace may show an event mid-overwrite.
func (e *Engine) LiveSessions() []LiveSession {
	type row struct {
		seq uint64
		ls  LiveSession
	}
	var rows []row
	e.table.each(func(s *session) {
		rows = append(rows, row{seq: s.seq, ls: LiveSession{
			Key:    s.key.String(),
			Origin: s.origin.Addr,
			Start:  s.start,
			Trace:  s.rec.Events(),
		}})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	out := make([]LiveSession, len(rows))
	for i, r := range rows {
		out[i] = r.ls
	}
	return out
}
