package starlink

import (
	"sync"
	"time"

	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/provision"
	"starlink/internal/trace"
)

// TraceEvent is one flight-recorder entry: a pipeline stage boundary
// the session crossed. Stage is one of "classify", "recv", "parse",
// "transition", "translate", "compose", "send", "peer"; Outcome is "ok", "err"
// or "drop"; At is the offset from the arrival of the session's
// initiating payload; Bytes is the payload size where meaningful
// (ingress and egress stages), zero otherwise.
type TraceEvent struct {
	Stage   string
	At      time.Duration
	Bytes   int
	Outcome string
}

// FormatTrace renders a flight-recorder trace in its compact one-line
// text form, one "stage@offsetns+bytes=outcome" token per event,
// ';'-separated. The form round-trips exactly through ParseTrace.
func FormatTrace(evs []TraceEvent) string {
	return trace.FormatEvents(traceInternal(evs))
}

// ParseTrace parses the compact text form produced by FormatTrace.
// An empty string parses to no events.
func ParseTrace(s string) ([]TraceEvent, error) {
	evs, err := trace.ParseEvents(s)
	if err != nil {
		return nil, err
	}
	return traceEventsOf(evs), nil
}

// traceEventsOf converts internal recorder events to the public form.
func traceEventsOf(evs []trace.Event) []TraceEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(evs))
	for i, ev := range evs {
		out[i] = TraceEvent{
			Stage:   ev.Stage.String(),
			At:      ev.At,
			Bytes:   ev.Bytes,
			Outcome: ev.Outcome.String(),
		}
	}
	return out
}

// traceInternal converts public trace events back to the internal
// form; unknown stage or outcome names are preserved as the recorder's
// "unknown" values so FormatTrace stays total.
func traceInternal(evs []TraceEvent) []trace.Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]trace.Event, len(evs))
	for i, ev := range evs {
		st := trace.Stage(trace.NumStages)
		for s := trace.Stage(0); int(s) < trace.NumStages; s++ {
			if s.String() == ev.Stage {
				st = s
				break
			}
		}
		o := trace.Outcome(3)
		for c := trace.Outcome(0); c < 3; c++ {
			if c.String() == ev.Outcome {
				o = c
				break
			}
		}
		out[i] = trace.Event{Stage: st, Outcome: o, At: ev.At, Bytes: ev.Bytes}
	}
	return out
}

// SessionStart announces an admitted session.
type SessionStart struct {
	// Case is the merged automaton bridging the session.
	Case string
	// Origin is the "ip:port" of the legacy client that opened it.
	Origin string
	// At is when the framework admitted the session.
	At time.Time
}

// SessionStats summarises one completed (or failed) bridge session
// (the paper's §VI translation-time measurement is the Duration
// field).
type SessionStats struct {
	// Case is the merged automaton that bridged the session.
	Case string
	// Origin is the "ip:port" of the legacy client that opened it.
	Origin string
	// Start is when the framework first received the request.
	Start time.Time
	// ReplyAt is when the first translated response was sent back to
	// the initiator — the endpoint of the paper's §VI translation-time
	// measurement. Zero if the session failed before replying.
	ReplyAt time.Time
	// End is when the session finished entirely.
	End time.Time
	// Duration is the paper's translation time: ReplyAt-Start when a
	// reply was sent, End-Start otherwise.
	Duration time.Duration
	// Err is non-nil when the session failed.
	Err error
	// Trace is the session's flight-recorder dump: the stage boundaries
	// it crossed, oldest first. Populated only when the session failed
	// (Err != nil) and the deployment's flight recorder is enabled (it
	// is by default; see WithFlightRecorder). Render with FormatTrace.
	Trace []TraceEvent
}

// Classification describes one entry payload classified by a
// deployment's entry listeners (a bridge's or a dispatcher's).
type Classification struct {
	// Case is the case the payload was dispatched to.
	Case string
	// Protocol and Message identify the classified entry message.
	Protocol string
	Message  string
	// Origin is the "ip:port" the payload came from.
	Origin string
	// Candidates lists every matching case when the classification was
	// ambiguous (nil otherwise).
	Candidates []string
	// Ambiguous reports whether more than one case matched.
	Ambiguous bool
	// Err is non-nil for ambiguous classifications, wrapping
	// ErrAmbiguousPayload.
	Err error
}

// CaseEvent announces a case (un)deployment. The deploy event has been
// delivered before the case's entry listeners reach it, so it precedes
// every session event of the case; a deploy that then fails (a port
// already bound, a context cancelled mid-deploy) is followed by its
// undeploy event. The undeploy event is emitted once per deployed case,
// after the last session event, whichever of Close, Shutdown, context
// cancellation or a Sync that retired the case tore it down. When the
// deployment closes it follows the release of the bridge host, so the
// host's IP is free by then; cases closed together are reported in name
// order.
type CaseEvent struct {
	// Case is the merged automaton name.
	Case string
	// Generation is the registry generation the case's artifacts were
	// compiled at.
	Generation uint64
}

// Drop reports refused work with its structured reason: ErrOverloaded
// for capacity rejections and queue overflow, ErrDraining for
// initiator requests arriving mid-shutdown, ErrClosed for payloads
// reaching an already-closed case.
type Drop struct {
	// Case is the case that refused the work (empty when the drop
	// happened before a case was chosen).
	Case string
	// Origin is the "ip:port" the refused payload came from.
	Origin string
	// Reason classifies the refusal; assert with errors.Is.
	Reason error
}

// Observer receives every signal a deployment emits: session
// lifecycle, dispatch classification, case deploy/undeploy, and drops.
// Register observers with WithObserver; multiple observers compose
// into a chain invoked in registration order. Invocations are
// serialised per deployment, so implementations need no locking of
// their own unless shared across deployments.
//
// Callbacks run on the deployment's internal goroutines: keep them
// fast and non-blocking, and never call Close, Shutdown or Sync
// synchronously from inside a callback — Close and Shutdown wait for
// the very goroutines the callback runs on, and OnDeploy runs inside
// the reconciliation a Sync waits its turn for. To tear a deployment
// down or resync it in reaction to an event, do it from a fresh
// goroutine.
//
// Implement the interface directly, or use Hooks to provide only the
// callbacks you need.
type Observer interface {
	OnSessionStart(SessionStart)
	OnSessionEnd(SessionStats)
	OnClassify(Classification)
	OnDeploy(CaseEvent)
	OnUndeploy(CaseEvent)
	OnDrop(Drop)
}

// Hooks adapts a set of optional callbacks into an Observer: nil
// fields are simply skipped. The zero Hooks observes nothing.
type Hooks struct {
	SessionStart func(SessionStart)
	SessionEnd   func(SessionStats)
	Classify     func(Classification)
	Deploy       func(CaseEvent)
	Undeploy     func(CaseEvent)
	Drop         func(Drop)
}

var _ Observer = Hooks{}

// OnSessionStart implements Observer.
func (h Hooks) OnSessionStart(e SessionStart) {
	if h.SessionStart != nil {
		h.SessionStart(e)
	}
}

// OnSessionEnd implements Observer.
func (h Hooks) OnSessionEnd(e SessionStats) {
	if h.SessionEnd != nil {
		h.SessionEnd(e)
	}
}

// OnClassify implements Observer.
func (h Hooks) OnClassify(e Classification) {
	if h.Classify != nil {
		h.Classify(e)
	}
}

// OnDeploy implements Observer.
func (h Hooks) OnDeploy(e CaseEvent) {
	if h.Deploy != nil {
		h.Deploy(e)
	}
}

// OnUndeploy implements Observer.
func (h Hooks) OnUndeploy(e CaseEvent) {
	if h.Undeploy != nil {
		h.Undeploy(e)
	}
}

// OnDrop implements Observer.
func (h Hooks) OnDrop(e Drop) {
	if h.Drop != nil {
		h.Drop(e)
	}
}

// observerChain is the sink a deployment's internal layers report to
// (provision.Sink, and so engine.Sink): it converts each event to its
// public form and fans it out to every registered observer, in
// registration order. Its mutex is what delivers the Observer contract's
// "invocations are serialised per deployment": the internal layers call
// the sink from whichever goroutine an event happens on, and a
// dispatcher hosts many engines (and emits classification events of its
// own), so the chain is the single point where all of a deployment's
// event sources converge.
//
// A chain exists only when observers were registered (deployConfig.sink);
// without one the layers below hold a nil sink and an event costs them a
// single branch.
type observerChain struct {
	obs []Observer
	mu  sync.Mutex
}

var _ provision.Sink = (*observerChain)(nil)

// each runs one event's delivery for every observer, serialised.
func (c *observerChain) each(deliver func(Observer)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.obs {
		deliver(o)
	}
}

func (c *observerChain) Deployed(caseName string, generation uint64) {
	e := CaseEvent{Case: caseName, Generation: generation}
	c.each(func(o Observer) { o.OnDeploy(e) })
}

func (c *observerChain) Undeployed(caseName string) {
	e := CaseEvent{Case: caseName}
	c.each(func(o Observer) { o.OnUndeploy(e) })
}

func (c *observerChain) SessionStart(caseName string, origin netapi.Addr, at time.Time) {
	e := SessionStart{Case: caseName, Origin: origin.String(), At: at}
	c.each(func(o Observer) { o.OnSessionStart(e) })
}

func (c *observerChain) SessionEnd(caseName string, s engine.SessionStats) {
	e := SessionStats{
		Case:     caseName,
		Origin:   s.Origin.String(),
		Start:    s.Start,
		ReplyAt:  s.ReplyAt,
		End:      s.End,
		Duration: s.Duration,
		Err:      s.Err,
		Trace:    traceEventsOf(s.Trace),
	}
	c.each(func(o Observer) { o.OnSessionEnd(e) })
}

func (c *observerChain) Dropped(caseName string, origin netapi.Addr, reason error) {
	e := Drop{Case: caseName, Origin: origin.String(), Reason: reason}
	c.each(func(o Observer) { o.OnDrop(e) })
}

func (c *observerChain) Classified(ev provision.ClassifyEvent) {
	e := Classification{
		Case:       ev.Case,
		Protocol:   ev.Protocol,
		Message:    ev.Message,
		Origin:     ev.Origin.String(),
		Candidates: ev.Candidates,
		Ambiguous:  ev.Ambiguous,
		Err:        ev.Err,
	}
	c.each(func(o Observer) { o.OnClassify(e) })
}
