package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"starlink/internal/lanes"
	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/trace"
	"starlink/internal/translation"
)

// sessionQueueCap bounds the payloads queued for one session on its
// worker's data lane. A session that cannot keep up has its excess
// payloads dropped (counted in Dropped) instead of stalling the
// listeners — UDP semantics end to end.
const sessionQueueCap = 64

// awaitKey is the published receive state used for entry routing.
type awaitKey struct {
	proto string
	msg   string
}

// session is the state of one bridged interaction: where it stands in
// the compiled program and what it has seen so far. It is data, not a
// thread of control — the ingest worker that admitted it (the consumer
// of q) runs its steps, and all fields below the marker are touched by
// that worker alone; once the workers have stopped, by Close. Other
// goroutines reach a session through the table and read only the
// fields above the marker: immutable identity, the await snapshot, the
// queued count and the wait-free recorder.
type session struct {
	e        *Engine
	key      string
	seq      uint64
	originIP string
	// origin is the source of the initiating request; start is when the
	// framework first received it.
	origin netengine.Source
	start  time.Time
	// q is the lane queue of the owning worker: every event of the
	// session is a job on it.
	q *lanes.Queue[ingestJob]
	// await is the receive the session is blocked on or running
	// towards (one of e.awaits), nil when there is none.
	await atomic.Pointer[awaitKey]
	// queued counts the payload jobs (jobData, jobEntry) waiting on q.
	queued atomic.Int32
	// rec is the session's flight recorder — nil when disabled
	// (WithTraceRing(0)). Set once before the session is published in
	// the table and never reassigned, so other goroutines (a worker
	// recording recv/parse of a message it forwards here, LiveSessions)
	// see it without locking; the recorder itself is wait-free.
	rec *trace.Recorder

	// --- owned by the worker ---
	pc int
	// entrySources remembers, per protocol, the latest entry peer so
	// ReplyToOrigin answers the right socket/connection.
	entrySources map[string]netengine.Source
	// history holds every stored message instance per abstract name —
	// the state queues and the ⇒ history operator of §III-B.
	history map[string][]*message.Message
	// requesters are the session's client-role channels per protocol.
	requesters map[string]*netengine.Requester
	// override is the destination set by a setHost λ action, consumed
	// by the next requester opened.
	override netapi.Addr

	// awaiting receive state. timerGen names the armed timer: a fire
	// that was already queued when its wait ended carries a stale one.
	waitProto string
	waitMsg   string
	collected []*message.Message
	windowed  bool
	timer     netapi.TimerID
	timerSet  bool
	timerGen  uint32

	// rng perturbs this session's convergence windows; deterministically
	// seeded per session so concurrent sessions never share a stream.
	rng *rand.Rand

	replyAt  time.Time
	finished bool
}

func newSession(e *Engine, q *lanes.Queue[ingestJob], key string, seq uint64, first *message.Message, src netengine.Source, tm ingestTiming) *session {
	s := &session{
		e:            e,
		key:          key,
		seq:          seq,
		originIP:     src.Addr.IP,
		origin:       src,
		start:        e.node.Now(),
		q:            q,
		pc:           1, // step 0 is the initiator receive, satisfied by first
		entrySources: map[string]netengine.Source{},
		history:      map[string][]*message.Message{},
		requesters:   map[string]*netengine.Requester{},
	}
	if e.windowJitter > 0 {
		s.rng = rand.New(rand.NewSource(e.jitterSeed + int64(s.seq)*0x9E3779B9))
	}
	if e.traceRing > 0 {
		// Epoch is the initiating payload's listener arrival, so every
		// event offset reads as time-into-session.
		epoch := tm.arrived
		if epoch.IsZero() {
			epoch = time.Now()
		}
		s.rec = trace.New(e.traceRing, epoch)
		s.recordIngest(tm, trace.OutcomeOK)
	}
	s.entrySources[e.program[0].Protocol] = src
	s.store(first)
	return s
}

// recordIngest notes the recv and parse boundaries a worker measured
// for a payload of this session. Safe from any goroutine: the recorder
// is wait-free and nil-safe.
func (s *session) recordIngest(tm ingestTiming, parse trace.Outcome) {
	s.rec.RecordAt(trace.StageRecv, trace.OutcomeOK, tm.picked, tm.bytes)
	s.rec.RecordAt(trace.StageParse, parse, tm.parsed, tm.bytes)
}

// handle runs one queued event of the session on its worker. Events
// that outlived the session are recycled silently.
func (s *session) handle(job ingestJob) {
	if job.kind != jobTimer {
		s.queued.Add(-1)
	}
	if s.finished {
		releaseJob(&job)
		return
	}
	switch job.kind {
	case jobEntry:
		proto := job.codec.Spec.Protocol
		if !s.waitsFor(proto, job.msg.Name) {
			// Not ours (stale routing): pass it on without touching
			// this session's reply targets.
			s.e.rerouteEntry(s, job)
			return
		}
		s.deliverEntry(proto, job.msg, job.src)
	case jobData:
		msg, tm, err := s.e.parse(&job)
		if err != nil {
			s.recordIngest(tm, trace.OutcomeErr)
			return
		}
		s.recordIngest(tm, trace.OutcomeOK)
		s.deliver(job.codec.Spec.Protocol, msg)
	case jobTimer:
		if !s.timerSet || job.gen != s.timerGen {
			return // cancelled or superseded timer
		}
		s.timerSet = false
		if s.windowed {
			s.windowExpired()
		} else {
			s.e.sessionDone(s, fmt.Errorf("engine: timeout waiting for %s/%s", s.waitProto, s.waitMsg))
		}
	}
}

// waitsFor reports whether the session is blocked on (proto, name).
func (s *session) waitsFor(proto, name string) bool {
	return s.waitProto == proto && s.waitMsg == name
}

// deliverEntry hands the session an entry message it waitsFor, and
// makes its peer the reply target of proto.
func (s *session) deliverEntry(proto string, msg *message.Message, src netengine.Source) {
	s.entrySources[proto] = src
	s.deliver(proto, msg)
}

func (s *session) store(m *message.Message) {
	s.history[m.Name] = append(s.history[m.Name], m)
}

// lookup returns the most recent stored instance of a message.
func (s *session) lookup(name string) *message.Message {
	h := s.history[name]
	if len(h) == 0 {
		return nil
	}
	return h[len(h)-1]
}

// advance executes program steps until the session blocks on a receive
// or completes. It first publishes the receive it is heading for: a send
// on the way may provoke the peer's next entry message, which must find
// the session (findAwaiting) even if it arrives before the receive is
// armed. That message queues behind this run on the owning worker, so it
// is delivered once the receive is armed.
func (s *session) advance() {
	s.await.Store(s.e.awaits[s.pc])
	for !s.finished {
		if s.pc >= len(s.e.program) {
			s.e.sessionDone(s, nil)
			return
		}
		step := s.e.program[s.pc]
		switch step.Kind {
		case merge.StepDelta:
			t0 := time.Now()
			err := s.runDelta(step)
			s.e.stageHists[trace.StageTransition].Record(time.Since(t0))
			if err != nil {
				s.rec.Record(trace.StageTransition, trace.OutcomeErr, 0)
				s.e.sessionDone(s, err)
				return
			}
			s.rec.Record(trace.StageTransition, trace.OutcomeOK, 0)
			s.pc++
		case merge.StepSend:
			if err := s.runSend(step); err != nil {
				s.e.sessionDone(s, err)
				return
			}
			s.pc++
		case merge.StepRecv:
			s.armReceive(step)
			return
		}
	}
}

// runDelta executes the λ actions of a δ-transition.
func (s *session) runDelta(step merge.Step) error {
	for _, act := range step.Delta.Actions {
		vals, err := act.Resolve(s.lookup)
		if err != nil {
			return err
		}
		switch act.Name {
		case translation.ActionSetHost:
			host := vals[0].Text()
			port, ok := vals[1].AsInt()
			if !ok {
				var n int64
				if _, err := fmt.Sscanf(vals[1].Text(), "%d", &n); err != nil {
					return fmt.Errorf("engine: setHost port %q is not numeric", vals[1].Text())
				}
				port = n
			}
			s.override = netapi.Addr{IP: host, Port: int(port)}
		default:
			return fmt.Errorf("engine: unknown λ action %q", act.Name)
		}
	}
	return nil
}

// runSend builds, translates, composes and transmits a message, timing
// each of the three stages into the engine's histograms and the
// session's flight recorder.
func (s *session) runSend(step merge.Step) error {
	codec := s.e.codecs[step.Protocol]
	// Pooled: the composed message joins the session history and is
	// recycled with it at cleanup.
	out := message.NewPooled(step.Protocol, step.Message)
	env := translation.Env{Lookup: s.lookup, Vars: s.e.vars}
	t0 := time.Now()
	err := s.e.merged.Logic.Apply(out, env, s.e.tfuncs)
	t1 := time.Now()
	s.e.stageHists[trace.StageTranslate].Record(t1.Sub(t0))
	if err != nil {
		out.Release() // never joined the history
		s.rec.RecordAt(trace.StageTranslate, trace.OutcomeErr, t1, 0)
		return err
	}
	s.rec.RecordAt(trace.StageTranslate, trace.OutcomeOK, t1, 0)
	wire, err := codec.Composer.Compose(out)
	t2 := time.Now()
	s.e.stageHists[trace.StageCompose].Record(t2.Sub(t1))
	if err != nil {
		out.Release()
		s.rec.RecordAt(trace.StageCompose, trace.OutcomeErr, t2, 0)
		return err
	}
	s.rec.RecordAt(trace.StageCompose, trace.OutcomeOK, t2, len(wire))
	s.store(out) // sent instances join the history (⇒ over sends)

	if step.ReplyToOrigin {
		src, ok := s.entrySources[step.Protocol]
		if !ok {
			src = s.origin
		}
		err := src.Reply(wire)
		s.e.stageHists[trace.StageSend].Record(time.Since(t2))
		if err != nil {
			s.rec.Record(trace.StageSend, trace.OutcomeErr, len(wire))
			return fmt.Errorf("engine: reply: %w", err)
		}
		s.rec.Record(trace.StageSend, trace.OutcomeOK, len(wire))
		if s.replyAt.IsZero() && step.Protocol == s.e.merged.Initiator {
			s.replyAt = s.e.node.Now()
		}
		return nil
	}
	r, ok := s.requesters[step.Protocol]
	if !ok {
		dest := s.override
		s.override = netapi.Addr{}
		// Opening a stream requester dials, and realnet's dial returns
		// only once the loopback connect completed or was refused: the
		// one call in which a step may wait, holding its worker.
		r, err = s.e.net.NewRequester(step.Color, dest, codec.Framer, func(data []byte, src netengine.Source, lease *netapi.Buffer) {
			s.e.post(s, ingestJob{kind: jobData, codec: codec, data: data, src: src, lease: lease, arrived: time.Now()})
		})
		if err != nil {
			return err
		}
		s.requesters[step.Protocol] = r
		if s.e.egress != nil {
			s.e.egress.Add(r)
		}
	}
	sendErr := r.Send(wire)
	s.e.stageHists[trace.StageSend].Record(time.Since(t2))
	if sendErr != nil {
		s.rec.Record(trace.StageSend, trace.OutcomeErr, len(wire))
		return fmt.Errorf("engine: send: %w", sendErr)
	}
	s.rec.Record(trace.StageSend, trace.OutcomeOK, len(wire))
	return nil
}

// armReceive blocks the session on a receive step (advance already
// published it). The timer callback fires on the runtime dispatcher, so
// it only queues a job for the owning worker — never touches session
// state.
func (s *session) armReceive(step merge.Step) {
	s.waitProto = step.Protocol
	s.waitMsg = step.Message
	s.collected = nil
	scheme, err := netengine.SchemeOf(step.Color)
	if err != nil {
		s.e.sessionDone(s, err)
		return
	}
	wait := s.e.recvTimeout
	s.windowed = false
	if scheme.Convergence > 0 {
		// Requester-side multicast collection window: gather responses
		// for the full window (the SLP convergence behaviour that
		// dominates the →SLP rows of Fig. 12(b)).
		wait = scheme.Convergence
		if s.e.windowJitter > 0 && s.rng != nil {
			wait += time.Duration(s.rng.Int63n(int64(s.e.windowJitter))) - s.e.windowJitter/2
		}
		s.windowed = true
	}
	s.timerGen++
	gen := s.timerGen
	s.timerSet = true
	s.timer = s.e.node.After(wait, func() { s.e.deliverTimer(s, gen) })
}

func (s *session) windowExpired() {
	if len(s.collected) == 0 {
		s.e.sessionDone(s, fmt.Errorf("engine: no %s/%s response within convergence window", s.waitProto, s.waitMsg))
		return
	}
	s.clearWait()
	s.pc++
	s.advance()
}

func (s *session) clearWait() {
	if s.timerSet {
		s.e.node.Cancel(s.timer)
		s.timerSet = false
	}
	s.timerGen++ // invalidate a fire already in flight
	s.waitProto, s.waitMsg = "", ""
	s.collected = nil
	s.await.Store(nil)
}

func (s *session) deliver(proto string, msg *message.Message) {
	if s.waitProto != proto || s.waitMsg != msg.Name {
		s.rec.Record(trace.StageRecv, trace.OutcomeDrop, 0)
		s.e.ignored.Add(1)
		// Parsed for this session alone and never stored: recycle.
		msg.Release()
		return
	}
	s.store(msg)
	if s.windowed {
		s.collected = append(s.collected, msg)
		return // keep collecting until the window expires
	}
	s.clearWait()
	s.pc++
	s.advance()
}

func (s *session) cleanup() {
	if s.timerSet {
		s.e.node.Cancel(s.timer)
		s.timerSet = false
	}
	s.timerGen++
	s.await.Store(nil)
	for proto, r := range s.requesters {
		if s.e.egress != nil {
			s.e.egress.Remove(r)
		}
		_ = r.Close()
		delete(s.requesters, proto)
	}
	// The session owns every message in its history (parsed inputs and
	// composed outputs); nothing references them once the session ends,
	// so the whole working set returns to the message pools here — the
	// session boundary of the pooled fast path.
	s.collected = nil
	for name, h := range s.history {
		for _, m := range h {
			m.Release()
		}
		delete(s.history, name)
	}
}
