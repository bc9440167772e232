package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

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
// the compiled plan and what it has seen so far, in arrays the plan's
// slots index. It is data, not a thread of control — the ingest worker
// that admitted it (w) runs its steps, and all fields below the marker
// are touched by that worker alone; once the workers have stopped, by
// Close. Other goroutines reach a session through the table and read
// only the fields above the marker: identity (written before the table
// insert), the await snapshot, the queued count, the life and the
// wait-free recorder. The struct outlives the interaction: a finished
// session is the next one its worker admits.
type session struct {
	e   *Engine
	w   *worker
	key sessionKey
	seq uint64
	// origin is the source of the initiating request; start is when the
	// framework first received it.
	origin netengine.Source
	start  time.Time
	// await is the receive the session is blocked on or running
	// towards (one of e.awaits), nil when there is none.
	await atomic.Pointer[awaitKey]
	// queued counts the payload jobs (jobData, jobEntry) waiting on the
	// worker's queue, whichever life they were posted for.
	queued atomic.Int32
	// life counts the sessions this struct has been. A payload job
	// carries the life it was posted for and, finding another, is
	// released unhandled: the event outlived its session.
	life atomic.Uint32
	// rec is the session's flight recorder — nil when disabled
	// (WithTraceRing(0)) — allocated with the struct and reset per life.
	// Other goroutines (a worker recording recv/parse of a message it
	// forwards here, LiveSessions) use it without locking.
	rec *trace.Recorder
	// timer is the struct's receive timer, built with it and armed for
	// one receive at a time; its callback, on the runtime's dispatcher,
	// posts a timer job of generation armed.
	timer netapi.Timer
	armed atomic.Uint32

	// --- owned by the worker ---
	pc int
	// entries is, per protocol, the peer a ReplyToOrigin send answers:
	// the origin until an entry message of that protocol arrives.
	entries []netengine.Source
	// history holds every stored message instance per message slot —
	// the state queues and the ⇒ history operator of §III-B.
	history [][]*message.Message
	// reqs are the session's client-role channels per requester slot.
	reqs []*requester
	// override is the destination set by a setHost λ action, consumed
	// by the next requester opened.
	override netapi.Addr
	// lookupFn is s.lookup, bound once per struct rather than per send.
	lookupFn func(string) *message.Message

	// wait is the plan index of the armed receive (-1: none). timerGen
	// names the timer's arm and only grows, across lives too: a fire
	// already queued when its wait ended carries a stale one. deadline
	// is when the arm is due.
	wait      int
	collected int
	windowed  bool
	timerSet  bool
	timerGen  uint32
	deadline  time.Time

	// rng perturbs this session's convergence windows; deterministically
	// seeded per session so concurrent sessions never share a stream.
	rng *rand.Rand

	// sent is when the session's last send ended, the start of the peer
	// stage of the replies it awaits; zero before its first send.
	sent    time.Time
	replyAt time.Time
}

// newSession takes a session from w's free list (or builds one) and
// starts its next life on the initiating message.
func (e *Engine) newSession(w *worker, key sessionKey, seq uint64, first *message.Message, src netengine.Source, tm ingestTiming) *session {
	// Epoch is the initiating payload's listener arrival, so every
	// event offset reads as time-into-session.
	epoch := tm.arrived
	if epoch.IsZero() {
		epoch = time.Now()
	}
	var s *session
	if n := len(w.free); n > 0 {
		s, w.free = w.free[n-1], w.free[:n-1]
		s.rec.Reset(epoch)
	} else {
		s = &session{
			e: e, w: w,
			rec:     trace.New(e.traceRing, epoch),
			entries: make([]netengine.Source, e.plan.nEntry),
			history: make([][]*message.Message, e.plan.nHist),
			reqs:    make([]*requester, len(e.plan.reqs)),
		}
		s.lookupFn = s.lookup
		s.timer = e.node.NewTimer(func() { e.deliverTimer(s, s.armed.Load()) })
	}
	s.key, s.seq, s.origin, s.start = key, seq, src, e.node.Now()
	s.pc, s.wait = 1, -1 // step 0 is the initiator receive, satisfied by first
	s.sent, s.replyAt = time.Time{}, time.Time{}
	if e.windowJitter > 0 {
		seed := e.jitterSeed + int64(seq)*0x9E3779B9
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(seed))
		} else {
			s.rng.Seed(seed)
		}
	}
	s.recordIngest(tm, trace.OutcomeOK)
	for i := range s.entries {
		s.entries[i] = src
	}
	s.store(&e.plan.steps[0], first)
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
// that outlived the session they were posted for end unhandled, and
// with them whatever message the session does not adopt.
func (s *session) handle(job *ingestJob, picked time.Time) {
	if job.kind == jobTimer {
		// A fire is stale when its arm was stopped or replaced — or when
		// it read the generation of an arm made after it was on its way.
		if !s.timerSet || job.gen != s.timerGen || s.e.node.Now().Before(s.deadline) {
			return
		}
		s.timerSet = false
		if s.windowed {
			s.windowExpired()
		} else {
			s.e.sessionDone(s, fmt.Errorf("engine: timeout waiting for %s", s.waiting()))
		}
		return
	}
	s.queued.Add(-1)
	if job.gen != s.life.Load() {
		return
	}
	if job.kind == jobEntry {
		if !s.waitsFor(job.codec, job.msg.Name) {
			// Not ours (stale routing): pass it on without touching
			// this session's reply targets.
			s.e.rerouteEntry(s, job)
			return
		}
		s.deliverEntry(job)
		return
	}
	tm, err := s.e.parse(s.w, job, picked)
	if err != nil {
		s.recordIngest(tm, trace.OutcomeErr)
		return
	}
	if !s.answers(job.req, job.src, job.msg) {
		s.rec.RecordAt(trace.StageRecv, trace.OutcomeDrop, tm.parsed, tm.bytes)
		s.e.stale.Add(1)
		return
	}
	s.recordIngest(tm, trace.OutcomeOK)
	s.deliver(job)
}

// waitsFor reports whether the session is blocked on message name of
// codec's protocol.
func (s *session) waitsFor(codec *Codec, name string) bool {
	if s.wait < 0 {
		return false
	}
	st := &s.e.plan.steps[s.wait]
	return st.codec == codec && st.Message == name
}

// waiting names the armed receive for error texts.
func (s *session) waiting() string {
	st := &s.e.plan.steps[s.wait]
	return st.Protocol + "/" + st.Message
}

// deliverEntry hands the session an entry message it waitsFor, and
// makes its peer the reply target of the protocol.
func (s *session) deliverEntry(job *ingestJob) {
	s.entries[s.e.plan.steps[s.wait].entry] = job.src
	s.deliver(job)
}

func (s *session) store(st *planStep, m *message.Message) {
	s.history[st.hist] = append(s.history[st.hist], m)
}

// lookup returns the most recent stored instance of a message: the
// translation logic's name-based view of the slot arrays.
func (s *session) lookup(name string) *message.Message {
	if slot, ok := s.e.plan.slotOf[name]; ok && len(s.history[slot]) > 0 {
		return s.history[slot][len(s.history[slot])-1]
	}
	return nil
}

// advance executes plan steps until the session blocks on a receive or
// ends; nothing may touch s after it returns from a step that ended it.
// It first publishes the receive it is heading for: a send on the way
// may provoke the peer's next entry message, which must find the
// session (findAwaiting) even if it arrives before the receive is
// armed. That message queues behind this run on the owning worker, so
// it is delivered once the receive is armed.
func (s *session) advance() {
	s.await.Store(s.e.awaits[s.pc])
	for ; s.pc < len(s.e.plan.steps); s.pc++ {
		st := &s.e.plan.steps[s.pc]
		var err error
		switch st.Kind {
		case merge.StepDelta:
			t0 := time.Now()
			err = s.runDelta(st)
			took, t1 := elapsed(t0)
			s.e.stageHists[trace.StageTransition].Record(took)
			if err != nil {
				s.rec.RecordAt(trace.StageTransition, trace.OutcomeErr, t1, 0)
			} else {
				s.rec.RecordAt(trace.StageTransition, trace.OutcomeOK, t1, 0)
			}
		case merge.StepSend:
			err = s.runSend(st)
		case merge.StepRecv:
			s.armReceive(st)
			return
		}
		if err != nil {
			s.e.sessionDone(s, err)
			return
		}
	}
	s.e.sessionDone(s, nil)
}

// runDelta executes the λ actions of a δ-transition.
func (s *session) runDelta(st *planStep) error {
	var scratch [2]message.Value // setHost's host and port
	for _, act := range st.Delta.Actions {
		vals, err := act.Resolve(scratch[:0], s.lookupFn)
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
// session's flight recorder. The message joins the history once
// composed, and ends with it at cleanup.
func (s *session) runSend(st *planStep) error {
	out := s.w.draw(st.Protocol, st.Message)
	wire, composed, err := s.compose(st, out)
	if err != nil {
		s.w.release(out) // never joined the history
		return err
	}
	s.store(st, out) // sent instances join the history (⇒ over sends)

	e := s.e
	what := "send"
	if st.ReplyToOrigin {
		what = "reply"
		err = s.entries[st.entry].Reply(wire)
		if err == nil && s.replyAt.IsZero() && st.Protocol == e.merged.Initiator {
			s.replyAt = e.node.Now()
		}
	} else {
		// Opening a stream requester dials, and realnet's dial returns
		// only once the loopback connect completed or was refused: the
		// one call in which a step may wait, holding its worker.
		var r *requester
		if r, err = s.requester(st); err != nil {
			return err
		}
		err = r.Send(wire)
	}
	took, sent := elapsed(composed)
	e.stageHists[trace.StageSend].Record(took)
	if err != nil {
		s.rec.RecordAt(trace.StageSend, trace.OutcomeErr, sent, len(wire))
		return fmt.Errorf("engine: %s: %w", what, err)
	}
	s.rec.RecordAt(trace.StageSend, trace.OutcomeOK, sent, len(wire))
	s.sent = sent
	return nil
}

// compose fills out by the translation logic, stamps a lent socket's
// epoch into its txid and composes it into the worker's wire buffer,
// returning the wire and when the compose stage ended.
func (s *session) compose(st *planStep, out *message.Message) ([]byte, time.Time, error) {
	e := s.e
	env := translation.Env{Lookup: s.lookupFn, Vars: e.vars}
	t0 := time.Now()
	err := e.merged.Logic.Apply(out, env, e.tfuncs)
	took, t1 := elapsed(t0)
	e.stageHists[trace.StageTranslate].Record(took)
	if err != nil {
		s.rec.RecordAt(trace.StageTranslate, trace.OutcomeErr, t1, 0)
		return nil, t1, err
	}
	s.rec.RecordAt(trace.StageTranslate, trace.OutcomeOK, t1, 0)
	if !st.ReplyToOrigin && e.plan.reqs[st.req].stamp {
		// The engine owns an integer txid field: on a lent socket it
		// carries the epoch of this lend, which a reply must echo.
		r, err := s.requester(st)
		if err != nil {
			return nil, t1, err
		}
		if r.epoch != 0 {
			out.SetPathParts(e.plan.reqs[st.req].txid, message.Int(int64(r.epoch)))
		}
	}
	wire, err := st.codec.Composer.AppendCompose(s.w.wire[:0], out)
	s.w.wire = wire
	took, t2 := elapsed(t1)
	e.stageHists[trace.StageCompose].Record(took)
	if err != nil {
		s.rec.RecordAt(trace.StageCompose, trace.OutcomeErr, t2, 0)
		return nil, t2, err
	}
	s.rec.RecordAt(trace.StageCompose, trace.OutcomeOK, t2, len(wire))
	return wire, t2, nil
}

// armReceive blocks the session on a receive step (advance already
// published it) and arms the struct's timer. The timer callback fires on
// the runtime dispatcher, so it only queues a job for the owning worker
// — never touches session state.
func (s *session) armReceive(st *planStep) {
	s.wait = s.pc
	s.collected = 0
	wait := s.e.recvTimeout
	s.windowed = st.window > 0
	if s.windowed {
		// Requester-side multicast collection window: gather responses
		// for the full window (the SLP convergence behaviour that
		// dominates the →SLP rows of Fig. 12(b)).
		wait = st.window
		if s.e.windowJitter > 0 && s.rng != nil {
			wait += time.Duration(s.rng.Int63n(int64(s.e.windowJitter))) - s.e.windowJitter/2
		}
	}
	s.timerGen++
	s.armed.Store(s.timerGen)
	s.timerSet = true
	s.deadline = s.e.node.Now().Add(wait)
	s.timer.Reset(wait)
}

func (s *session) windowExpired() {
	if s.collected == 0 {
		s.e.sessionDone(s, fmt.Errorf("engine: no %s response within convergence window", s.waiting()))
		return
	}
	s.clearWait()
	s.pc++
	s.advance()
}

// clearWait ends the armed receive, if any.
func (s *session) clearWait() {
	if s.timerSet {
		s.timer.Stop()
		s.timerSet = false
	}
	s.timerGen++ // invalidate a fire already in flight
	s.wait = -1
	s.await.Store(nil)
}

// deliver stores the job's message in the history if the session
// waitsFor it; one it does not ends with the job.
func (s *session) deliver(job *ingestJob) {
	if !s.waitsFor(job.codec, job.msg.Name) {
		s.rec.Record(trace.StageRecv, trace.OutcomeDrop, 0)
		s.e.ignored.Add(1)
		return
	}
	if !s.sent.IsZero() {
		// Its arrival ends the peer stage the last send began; a reply
		// that beat the send's own end counts as 0.
		s.e.stageHists[trace.StagePeer].Record(job.arrived.Sub(s.sent))
		s.rec.RecordAt(trace.StagePeer, trace.OutcomeOK, job.arrived, 0)
	}
	s.store(&s.e.plan.steps[s.wait], job.adopt())
	if s.windowed {
		s.collected++
		return // keep collecting until the window expires
	}
	s.clearWait()
	s.pc++
	s.advance()
}

// cleanup releases what the finished session holds and leaves its
// arrays empty for the struct's next life.
func (s *session) cleanup() {
	s.clearWait()
	for i, r := range s.reqs {
		if r != nil {
			s.release(i)
		}
	}
	s.override = netapi.Addr{}
	// The session owns every message in its history (parsed inputs and
	// composed outputs); nothing references them once the session ends,
	// so the whole working set returns to the message pools here — the
	// one place a session releases a message it adopted.
	for i, h := range s.history {
		for j, m := range h {
			s.w.release(m)
			h[j] = nil
		}
		s.history[i] = h[:0]
	}
}
