package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/serrors"
	"starlink/internal/trace"
	"starlink/internal/translation"
)

// inboxCap bounds each session's event inbox. A session that cannot
// keep up has its excess payloads dropped (counted in Dropped) instead
// of stalling the listeners — UDP semantics end to end.
const inboxCap = 64

// Timer events must never be lost: a dropped receive timer would
// stall the session forever and leak its max-sessions slot. They
// therefore travel on a dedicated per-session channel (timerCh) that
// the run loop priority-drains, with a token-safe retry on the
// never-expected full case — structurally immune to payload
// backpressure. timerChCap covers the worst case of one stale fire
// from a cleared wait plus a fresh fire of the re-armed timer
// arriving while one event is being handled.
const timerChCap = 4

type eventKind uint8

const (
	// evStart begins executing the compiled program (the initiating
	// request is already in the session history).
	evStart eventKind = iota
	// evEntry is a parsed message routed from an entry listener.
	evEntry
	// evData is a raw payload from one of the session's requester
	// channels; it is parsed on the session goroutine.
	evData
	// evTimer is a fired receive timer (convergence window or timeout).
	evTimer
)

// sessEvent is one unit of session work. Every event in flight holds
// one work-tracker token; the token is released when the session
// finishes handling the event (or when the event is dropped).
type sessEvent struct {
	kind  eventKind
	proto string
	msg   *message.Message
	data  []byte
	// lease is the pooled receive buffer backing data on evData events
	// whose payload the runtime delivered leased; the session releases
	// it right after parsing (or on any drop path).
	lease *netapi.Buffer
	src   netengine.Source
	gen   uint64
	// arrived is the wall-clock arrival time of an evData payload at
	// its requester callback — the origin of its recv-stage sample.
	arrived time.Time
	// rerouted marks an entry event already forwarded once by a
	// session that had moved past the awaited state (no second hop).
	rerouted bool
}

// awaitKey is the published receive state used for entry routing.
type awaitKey struct {
	proto string
	msg   string
}

// session executes the compiled program for one bridged interaction on
// its own goroutine. All fields below the marker are confined to that
// goroutine; cross-goroutine interaction happens only through inbox,
// the session context and the published await snapshot.
type session struct {
	e        *Engine
	key      string
	seq      uint64
	originIP string
	inbox    chan sessEvent
	timerCh  chan sessEvent
	// ctx is the session's own context, derived from the engine's
	// lifetime context: cancelling either tears the session down. The
	// engine cancels individual sessions on Close (and a caller's
	// WithContext cancellation reaches every session through the
	// parent edge).
	ctx    context.Context
	cancel context.CancelFunc
	await  atomic.Pointer[awaitKey]

	// --- goroutine-confined state ---
	pc int
	// origin is the source of the initiating request.
	origin netengine.Source
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

	// awaiting receive state.
	waitProto string
	waitMsg   string
	collected []*message.Message
	windowed  bool
	timer     netapi.TimerID
	timerSet  bool
	timerGen  uint64

	// rng perturbs this session's convergence windows; deterministically
	// seeded per session so concurrent sessions never share a stream.
	rng *rand.Rand

	// rec is the session's flight recorder — nil when disabled
	// (WithTraceRing(0)). Set once before the session is published in
	// the table and never reassigned, so cross-goroutine writers (the
	// ingest worker recording recv/parse of a rendezvous delivery) see
	// it without locking; the recorder itself is wait-free.
	rec *trace.Recorder

	start    time.Time
	replyAt  time.Time
	finished bool
}

func newSession(e *Engine, key string, seq uint64, first *message.Message, src netengine.Source, tm ingestTiming) *session {
	s := &session{
		e:            e,
		key:          key,
		seq:          seq,
		originIP:     src.Addr.IP,
		inbox:        make(chan sessEvent, inboxCap+e.ingestWorkers+2),
		timerCh:      make(chan sessEvent, timerChCap),
		pc:           1, // step 0 is the initiator receive, satisfied by first
		origin:       src,
		entrySources: map[string]netengine.Source{},
		history:      map[string][]*message.Message{},
		requesters:   map[string]*netengine.Requester{},
		start:        e.node.Now(),
	}
	s.ctx, s.cancel = context.WithCancel(e.ctx)
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
		s.recordIngest(tm)
	}
	s.entrySources[e.program[0].Protocol] = src
	s.store(first)
	return s
}

// recordIngest notes the recv and parse boundaries an ingest worker
// measured for a payload delivered to this session. Safe from any
// goroutine: the recorder is wait-free and nil-safe.
func (s *session) recordIngest(tm ingestTiming) {
	if s.rec == nil {
		return
	}
	if !tm.picked.IsZero() {
		s.rec.RecordAt(trace.StageRecv, trace.OutcomeOK, tm.picked, tm.bytes)
	}
	if !tm.parsed.IsZero() {
		s.rec.RecordAt(trace.StageParse, trace.OutcomeOK, tm.parsed, tm.bytes)
	}
}

// run is the session goroutine: it consumes inbox and timer events
// until the session finishes or the engine shuts it down, then drains
// both channels so every in-flight work token is released. Fired
// timers are drained with priority so payload pressure can never
// starve the session's liveness timer.
func (s *session) run() {
	defer s.e.sessionWG.Done()
	for {
		for !s.finished {
			select {
			case ev := <-s.timerCh:
				s.handle(ev)
				s.e.tracker.WorkDone()
				continue
			default:
			}
			break
		}
		if s.finished {
			s.drainAll()
			return
		}
		select {
		case ev := <-s.inbox:
			s.handle(ev)
			s.e.tracker.WorkDone()
		case ev := <-s.timerCh:
			s.handle(ev)
			s.e.tracker.WorkDone()
		case <-s.ctx.Done():
			// Forcible teardown (engine Close, drain deadline, context
			// cancellation) still reports through sessionDone so the
			// session is counted (Failed) and observers see its end —
			// sessions must never vanish from the metrics surface.
			s.e.sessionDone(s, serrors.Mark(
				fmt.Errorf("engine: %s: session from %s torn down before completion",
					s.e.merged.Name, s.origin.Addr),
				serrors.ErrClosed))
			s.drainAll()
			return
		}
	}
}

// drainAll releases the tokens of events that arrived before the
// session was unregistered from the table (after which no new enqueue
// can target it).
func (s *session) drainAll() {
	for {
		select {
		case ev := <-s.inbox:
			s.e.tracker.WorkDone()
			if ev.msg != nil {
				// Undelivered entry messages were never stored in the
				// (already recycled) history; this drain holds the last
				// reference.
				ev.msg.Release()
			}
			if ev.lease != nil {
				// Undelivered leased payloads return their receive
				// buffer at session cleanup — the backstop of the
				// lease contract.
				ev.lease.Release()
			}
		case <-s.timerCh:
			s.e.tracker.WorkDone()
		default:
			return
		}
	}
}

func (s *session) handle(ev sessEvent) {
	switch ev.kind {
	case evStart:
		s.advance()
	case evEntry:
		if s.waitProto != ev.proto || s.waitMsg != ev.msg.Name {
			// Not ours (stale routing): pass it on without touching
			// this session's reply targets.
			s.e.rerouteEntry(s, ev)
			return
		}
		s.entrySources[ev.proto] = ev.src
		s.deliver(ev.proto, ev.msg)
	case evData:
		codec := s.e.codecs[ev.proto]
		picked := time.Now()
		nbytes := len(ev.data)
		msg, err := codec.Parser.Parse(ev.data)
		parsed := time.Now()
		if ev.lease != nil {
			// The parse copied everything it kept: the receive buffer
			// goes straight back to its pool.
			ev.lease.Release()
			ev.lease = nil
		}
		if !ev.arrived.IsZero() {
			s.e.stageHists[trace.StageRecv].Record(picked.Sub(ev.arrived))
			s.rec.RecordAt(trace.StageRecv, trace.OutcomeOK, picked, nbytes)
		}
		s.e.stageHists[trace.StageParse].Record(parsed.Sub(picked))
		if err != nil {
			s.rec.RecordAt(trace.StageParse, trace.OutcomeErr, parsed, nbytes)
			s.e.bump(&s.e.ParseErrors)
			return
		}
		s.rec.RecordAt(trace.StageParse, trace.OutcomeOK, parsed, nbytes)
		s.deliver(ev.proto, msg)
	case evTimer:
		if !s.timerSet || ev.gen != s.timerGen {
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

// History exposes the stored sequence for a message name (tests).
func (s *session) History(name string) []*message.Message { return s.history[name] }

// advance executes program steps until the session blocks on a receive
// or completes.
func (s *session) advance() {
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
		proto := step.Protocol
		r, err = s.e.net.NewRequester(step.Color, dest, codec.Framer, func(data []byte, src netengine.Source, lease *netapi.Buffer) {
			s.e.tracker.WorkAdd()
			s.e.enqueue(s, sessEvent{kind: evData, proto: proto, data: data, lease: lease, arrived: time.Now()})
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

// armReceive blocks the session on a receive step. The timer callback
// fires on the runtime dispatcher, so it only posts an event back to
// the inbox — never touches session state.
func (s *session) armReceive(step merge.Step) {
	s.waitProto = step.Protocol
	s.waitMsg = step.Message
	s.collected = nil
	s.await.Store(&awaitKey{proto: step.Protocol, msg: step.Message})
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
	s.timer = s.e.node.After(wait, func() {
		s.e.tracker.WorkAdd()
		s.e.deliverTimer(s, gen)
	})
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
		s.e.bump(&s.e.Ignored)
		// Freshly parsed on this goroutine and never stored: recycle.
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
	s.cancel() // release the session context (idempotent)
	if s.timerSet {
		s.e.node.Cancel(s.timer)
		s.timerSet = false
	}
	s.timerGen++
	s.await.Store(nil)
	for _, r := range s.requesters {
		if s.e.egress != nil {
			s.e.egress.Remove(r)
		}
		_ = r.Close()
	}
	s.requesters = map[string]*netengine.Requester{}
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
