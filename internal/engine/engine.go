// Package engine implements Starlink's Automata Engine (paper §IV-B):
// the runtime that executes a merged automaton. It is the component
// that makes the bridge work end to end:
//
//   - at a *receiving state* it listens through the Network Engine on
//     the state's color, parses inbound bytes with the protocol's
//     MDL-specialised parser, and pushes the abstract message onto the
//     session's state queue;
//   - at a *bridge state* (a δ-transition) it runs the λ network
//     actions (setHost redirects the next connection);
//   - at a *sending state* it builds the outgoing abstract message by
//     applying the translation logic's assignments against the stored
//     message history, composes it with the MDL-specialised composer,
//     and transmits it with the color's network semantics — unicast
//     back to the session origin for replies.
//
// One Engine hosts one deployed merged automaton; each incoming
// initiator request opens an independent session, and the engine is a
// concurrent session runtime — the paper's "concurrent legacy clients
// are bridged in parallel" made literal:
//
//   - a session is plain data — an index into the compiled plan plus
//     the arrays its slots index (history, reply targets, requesters) —
//     owned by one ingest worker: the worker that admits it runs its
//     receive→translate→compose steps inline, and every later event of
//     the session (a requester payload, a mid-program entry message, a
//     fired receive timer) re-enters through that worker's lane queue as
//     a job carrying the session pointer and the life it was posted for.
//     No goroutine, channel or context exists per session, session state
//     needs no lock because only its worker ever touches it, and a
//     finished session's struct is the next one that worker admits;
//   - a client-role color that declares a transaction id has its
//     requester sockets lent from session to session by the worker, a
//     reply being taken only if it echoes the lend's epoch (worker.go);
//   - other goroutines see a session only through the sharded, keyed
//     table (key = entry color + origin address) and what a session
//     publishes for them: its immutable identity (key, sequence number,
//     origin, start time), the atomic snapshot of the receive it is
//     heading for (findAwaiting, AwaitsEntry) and its wait-free flight
//     recorder (LiveSessions);
//   - payloads are assigned to workers by routing key, so one client
//     socket's payloads — and therefore its sessions — serialise on one
//     worker while distinct sockets spread over the pool. A step may
//     wait in exactly one call, the stream dial of a TCP color, and it
//     holds its worker for that long;
//   - the lane queues are bounded, a per-session cap bounds the payloads
//     queued for any one session, and a max-sessions semaphore rejects
//     (rather than accumulates) load beyond the configured ceiling, so
//     overload degrades gracefully. Timers ride the control lane, which
//     never evicts, so payload pressure cannot cost a session its
//     timeout;
//   - Close stops the workers, and only then ends the sessions still
//     live, on the closing goroutine, with an ErrClosed error through the
//     same sink;
//   - the engine reports in-flight work to its node (WorkAdd/WorkDone),
//     which keeps simulated runs deterministic and engine state safe to
//     read after RunUntil.
//
// An engine binds no socket for its entry colors: every payload arrives
// through Inject, from the provisioning dispatcher that owns the entry
// listeners and the bridge host (internal/provision — a single-case
// bridge is a dispatcher hosting one case). What the engine observes
// goes to one Sink (a nil one costs a branch per event); what it counts
// is read as one Snapshot, by Counts (cheap) or Snapshot (with the
// distributions). Close is where every teardown ends and the one origin
// of the Undeployed event.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/composer"
	"starlink/internal/hist"
	"starlink/internal/lanes"
	"starlink/internal/mdl"
	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/parser"
	"starlink/internal/serrors"
	"starlink/internal/trace"
	"starlink/internal/translation"
	"starlink/internal/types"
)

// State is an engine's position in its lifecycle. The engine moves
// strictly forward: Starting → Running → (Draining →) Closed.
type State int32

const (
	// StateStarting is the window between New and Start: no listeners
	// are bound and no sessions are admitted yet.
	StateStarting State = iota
	// StateRunning accepts entry payloads and admits new sessions.
	StateRunning
	// StateDraining admits no new sessions but keeps delivering
	// payloads to the live ones so they can finish.
	StateDraining
	// StateClosed has released every listener, worker and session.
	StateClosed
)

// String names the state for logs and metrics.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Defaults for the concurrency knobs; all overridable via options.
const (
	defaultMaxSessions = 4096
	// defaultTraceRing is the per-session flight-recorder capacity in
	// events; WithTraceRing overrides, 0 disables recording.
	defaultTraceRing = 64
)

// Codec bundles the MDL-driven marshalling machinery for one protocol.
// Parsers and composers are stateless per call, so one codec is shared
// by every ingest worker.
type Codec struct {
	Spec     *mdl.Spec
	Parser   *parser.Parser
	Composer *composer.Composer
	// Framer is required for stream (TCP) colors; nil otherwise.
	Framer *parser.Framer
}

// NewCodec builds a codec from an MDL spec. A framer is attached when
// the spec supports one (needed only for TCP colors).
func NewCodec(spec *mdl.Spec, reg *types.Registry, funcs *types.FuncRegistry) (*Codec, error) {
	p, err := parser.New(spec, reg)
	if err != nil {
		return nil, err
	}
	c, err := composer.New(spec, reg, funcs)
	if err != nil {
		return nil, err
	}
	codec := &Codec{Spec: spec, Parser: p, Composer: c}
	if f, err := parser.NewFramer(spec); err == nil {
		codec.Framer = f
	}
	return codec, nil
}

// SessionStats summarises one completed (or failed) bridge session.
type SessionStats struct {
	// Origin is the legacy client that opened the session.
	Origin netapi.Addr
	// Start is when the framework first received the request.
	Start time.Time
	// ReplyAt is when the first translated response was sent back to
	// the initiator — the endpoint of the paper's §VI translation-time
	// measurement ("until the translated output response was sent on
	// the output socket"). Zero if the session failed before replying.
	ReplyAt time.Time
	// End is when the session finished entirely (for the reverse-UPnP
	// cases this includes serving the description GET).
	End time.Time
	// Duration is the paper's translation time: ReplyAt-Start when a
	// reply was sent, End-Start otherwise.
	Duration time.Duration
	Err      error
	// Trace is the session's flight-recorder dump — its pipeline stage
	// events, oldest first — populated only when the session failed
	// (Err != nil) and the recorder is enabled.
	Trace []trace.Event
}

// Option configures an Engine.
type Option func(*Engine)

// WithVars sets bridge environment variables available to translation
// constants (${bridge.host}, ${bridge.http.port}, ...).
func WithVars(vars map[string]string) Option {
	return func(e *Engine) {
		for k, v := range vars {
			e.vars[k] = v
		}
	}
}

// WithTranslationFuncs overrides the T-function registry.
func WithTranslationFuncs(funcs *translation.FuncRegistry) Option {
	return func(e *Engine) { e.tfuncs = funcs }
}

// WithReceiveTimeout bounds how long a session waits at a receive
// state with no convergence window before failing.
func WithReceiveTimeout(d time.Duration) Option {
	return func(e *Engine) { e.recvTimeout = d }
}

// WithWindowJitter perturbs every convergence window by a uniform
// value in [-d/2, +d/2], modelling the scheduler and retransmission
// variance visible in the paper's Fig. 12(b) min/max columns. Each
// session derives its own RNG from seed and its creation sequence
// number, so concurrent sessions never share a random stream and
// simulated runs stay reproducible.
func WithWindowJitter(d time.Duration, seed int64) Option {
	return func(e *Engine) { e.windowJitter, e.jitterSeed = d, seed }
}

// WithMaxSessions bounds the number of concurrently live sessions.
// Initiator requests beyond the bound are rejected (counted in
// Rejected) instead of queued, so a flood degrades into dropped
// requests rather than unbounded memory growth. Values < 1 are
// ignored and keep the default (4096).
func WithMaxSessions(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maxSessions = n
		}
	}
}

// WithIngestWorkers sets the size of the worker pool that parses and
// routes inbound entry payloads.
func WithIngestWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.ingestWorkers = n
		}
	}
}

// WithSink sets the sink the engine reports its events to (see Sink).
func WithSink(sink Sink) Option {
	return func(e *Engine) { e.sink = sink }
}

// WithTraceRing sizes the per-session flight recorder: the number of
// trace events each session retains in its fixed ring (rounded up to a
// power of two). 0 disables recording entirely — sessions carry a nil
// recorder, and every stage-boundary record costs one nil check.
// Values < 0 keep the default (64). Stage latency histograms are
// unaffected: they are always on.
func WithTraceRing(events int) Option {
	return func(e *Engine) {
		if events >= 0 {
			e.traceRing = events
		}
	}
}

// WithLanePolicy bounds and parameterizes the lane-prioritized ingest
// queues: per-lane ring capacity, the high/low pressure watermarks on
// total depth, and the shed mode applied while pressured. Zero fields
// are filled from lanes.DefaultPolicy; the filled policy must validate
// (New rejects inverted or out-of-range watermarks). The configured
// totals are divided across the ingest workers' queues.
func WithLanePolicy(p lanes.Policy) Option {
	return func(e *Engine) { e.lanePolicy = p }
}

// WithFlowGate supplies the transport flow gate the ingest queues
// pause while pressured: the dispatcher's entry listeners park their
// read loops while it is blocked. A dispatcher shares one gate across
// its engines; absent this option the engine creates its own.
func WithFlowGate(g *netapi.FlowGate) Option {
	return func(e *Engine) {
		if g != nil {
			e.gate = g
		}
	}
}

// WithEgressTable registers the local address of every datagram
// requester the engine's sessions open in t for the requesters'
// lifetime. A multi-case dispatcher shares one table across its
// engines so it can recognise — and not re-bridge — the deployment's
// own outbound requests arriving back on shared multicast listeners.
func WithEgressTable(t *netengine.EgressTable) Option {
	return func(e *Engine) { e.egress = t }
}

// jobKind says what an ingest worker does with a job.
type jobKind uint8

const (
	// jobPayload is an injected entry payload: parse it, then open
	// a session or route the message to the one awaiting it.
	jobPayload jobKind = iota
	// jobData is a raw payload from one of sess's requester channels.
	jobData
	// jobEntry is a parsed entry message (msg, from src) routed to sess.
	jobEntry
	// jobTimer is sess's fired receive timer of generation gen.
	jobTimer
)

// ingestJob is one unit of work on an ingest worker's lane queue: an
// inbound entry payload awaiting parse + route, or — when sess is set —
// the next event of a session that worker owns. It carries one
// work-tracker token, and — when the runtime delivered the payload in a
// leased buffer — the lease, which ends right after the parse (the
// parser never aliases its input). A job ends in one place, worker.done,
// whatever path it took: refused, shed, drained at Close or run. key is
// an entry payload's routing key, computed once on the listener hot
// path.
type ingestJob struct {
	codec *Codec
	key   netengine.RoutingKey
	data  []byte
	src   netengine.Source
	lease *netapi.Buffer
	// arrived is the wall-clock arrival time at the listener or
	// requester callback, the origin of the payload's lane-wait and
	// recv-stage latency samples and — for an initiator request — the
	// epoch of the session's flight recorder.
	arrived time.Time

	sess *session
	// msg is the job's parsed message until a session adopts it.
	msg  *message.Message
	kind jobKind
	// rerouted marks a jobEntry already forwarded once by a session
	// that had moved past the awaited state (no second hop).
	rerouted bool
	// req is the requester slot a jobData payload arrived on; gen the
	// life of sess the job was posted for — on a jobTimer, the timer's.
	req uint8
	gen uint32
}

// ingestTiming carries the wall-clock stage boundaries measured by an
// ingest worker into the session it opens or rendezvouses with.
type ingestTiming struct {
	arrived time.Time
	picked  time.Time
	parsed  time.Time
	bytes   int
}

// releaseLease returns the job's leased receive buffer, if any.
func (job *ingestJob) releaseLease() {
	if job.lease != nil {
		job.lease.Release()
		job.lease = nil
	}
}

// adopt hands the job's message to a new owner — a session's history,
// or the job that carries it on — so that the job's end leaves it be.
func (job *ingestJob) adopt() *message.Message {
	m := job.msg
	job.msg = nil
	return m
}

// Engine executes one merged automaton on one bridge node.
type Engine struct {
	node    netapi.Node
	net     *netengine.Engine
	merged  *merge.Merged
	program []merge.Step
	plan    *plan
	// awaits[pc] is the receive a session at pc is heading for: the
	// first receive step at or after pc (nil past the last one). Built
	// once so publishing it allocates nothing.
	awaits []*awaitKey
	codecs map[string]*Codec
	tfuncs *translation.FuncRegistry
	vars   map[string]string
	egress *netengine.EgressTable

	recvTimeout  time.Duration
	windowJitter time.Duration
	jitterSeed   int64
	sink         Sink

	maxSessions   int
	ingestWorkers int
	traceRing     int
	lanePolicy    lanes.Policy

	// Stage latency histograms, always on: one per pipeline stage plus
	// the whole-session distribution. Lock-free; see internal/hist.
	stageHists [trace.NumStages]*hist.Histogram
	sessHist   *hist.Histogram
	// laneHists measures per-lane queue wait: listener arrival to
	// ingest-worker pickup.
	laneHists [lanes.NumLanes]*hist.Histogram

	// Lifecycle. state moves strictly forward.
	state atomic.Int32
	// drained is closed (once) when the engine is draining and the
	// last live session has finished.
	drained   chan struct{}
	drainOnce sync.Once

	table *sessionTable
	sem   chan struct{} // max-sessions semaphore
	// workers are the ingest workers, one bounded lane-prioritized
	// queue each; payloads are assigned by routing key, so payloads from
	// one origin are always parsed and routed in arrival order, and a
	// session's events go to the queue of the worker that admitted it.
	// gate is the flow gate the queues pause at their high watermark —
	// the entry listeners' read loops park on it.
	workers    []*worker
	gate       *netapi.FlowGate
	workerWG   sync.WaitGroup
	closeMu    sync.RWMutex // serialises offer's token+enqueue against Close
	sessionSeq atomic.Uint64

	// finishMu makes a session's finish one step — table removal, the
	// completed/failed count and the drain check — against BeginDrain's
	// "last session already gone" check and against Counts' read of Live,
	// so a finishing session is always in exactly one of Live or
	// Completed/Failed and a drain is signalled exactly once. Lock order
	// is finishMu → shard mutex, never the reverse.
	finishMu  sync.Mutex
	completed int
	failed    int

	// The drop-path and ingest counters are bumped per payload from every
	// listener and worker: atomics, no lock.
	parseErrors   atomic.Int64
	ignored       atomic.Int64
	rejected      atomic.Int64
	dropped       atomic.Int64
	drainRejected atomic.Int64
	ingestTotal   atomic.Uint64
	ingestBatched atomic.Uint64
	// Requester payloads that answered no current holder, and the lent
	// sockets' accounting (Counters).
	stale          atomic.Int64
	requesterLends atomic.Int64
	requesterOpens atomic.Int64
	idleRequesters atomic.Int64
}

// New builds an engine for the merged automaton. codecs must contain
// an entry for every member protocol.
func New(node netapi.Node, merged *merge.Merged, codecs map[string]*Codec, opts ...Option) (*Engine, error) {
	program, err := merged.Compile()
	if err != nil {
		return nil, err
	}
	for _, a := range merged.Automata {
		c, ok := codecs[a.Protocol]
		if !ok {
			return nil, fmt.Errorf("engine: no codec for protocol %q", a.Protocol)
		}
		if c.Spec.Protocol != a.Protocol {
			return nil, fmt.Errorf("engine: codec protocol %q does not match automaton %q",
				c.Spec.Protocol, a.Protocol)
		}
	}
	specs := map[string]*mdl.Spec{}
	for p, c := range codecs {
		specs[p] = c.Spec
	}
	if err := merged.CheckEquivalences(specs); err != nil {
		return nil, err
	}
	plan, err := compilePlan(program, codecs)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	if workers > 8 {
		workers = 8
	}
	e := &Engine{
		node:          node,
		merged:        merged,
		program:       program,
		plan:          plan,
		codecs:        codecs,
		tfuncs:        translation.NewFuncRegistry(),
		vars:          map[string]string{"bridge.host": node.IP()},
		recvTimeout:   30 * time.Second,
		maxSessions:   defaultMaxSessions,
		ingestWorkers: workers,
		traceRing:     defaultTraceRing,
		drained:       make(chan struct{}),
	}
	for i := range e.stageHists {
		e.stageHists[i] = &hist.Histogram{}
	}
	e.sessHist = &hist.Histogram{}
	for i := range e.laneHists {
		e.laneHists[i] = &hist.Histogram{}
	}
	for _, o := range opts {
		o(e)
	}
	if err := merged.Logic.Validate(e.tfuncs); err != nil {
		return nil, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	e.lanePolicy = e.lanePolicy.WithDefaults()
	if err := e.lanePolicy.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", merged.Name, err)
	}
	if e.gate == nil {
		e.gate = netapi.NewFlowGate()
	}
	// The engine's own sockets are its sessions' requesters; the
	// dispatcher gates its entry listeners with the gate it passed via
	// WithFlowGate.
	e.net = netengine.New(node, netengine.WithGate(e.gate))
	e.awaits = make([]*awaitKey, len(program)+1)
	for pc := len(program) - 1; pc >= 0; pc-- {
		e.awaits[pc] = e.awaits[pc+1]
		if step := program[pc]; step.Kind == merge.StepRecv {
			e.awaits[pc] = &awaitKey{proto: step.Protocol, msg: step.Message}
		}
	}
	e.table = newSessionTable()
	e.sem = make(chan struct{}, e.maxSessions)
	perWorker := e.lanePolicy.Scale(e.ingestWorkers)
	e.workers = make([]*worker, e.ingestWorkers)
	for i := range e.workers {
		e.workers[i] = &worker{
			q:    lanes.NewQueue[ingestJob](perWorker, e.gate),
			idle: make([][]*requester, len(plan.reqs)),
		}
	}
	return e, nil
}

// Program returns the compiled step list (diagnostics, mdlc tool).
func (e *Engine) Program() []merge.Step { return e.program }

// State returns the engine's lifecycle state.
func (e *Engine) State() State { return State(e.state.Load()) }

// Start runs the ingest worker pool and flips the engine to Running:
// from then on it takes payloads through Inject.
func (e *Engine) Start() {
	for _, w := range e.workers {
		e.workerWG.Add(1)
		go e.ingestLoop(w)
	}
	e.state.CompareAndSwap(int32(StateStarting), int32(StateRunning))
}

// Inject is how an entry payload reaches the engine, off the
// dispatcher's listener for the protocol: it is classified into its
// priority lane and offered to the lane queue of the ingest worker
// owning the payload's routing key, so payloads from one origin keep
// their arrival order, then parsed and routed there. Safe to call from
// any goroutine. lease is the pooled buffer backing data when the caller
// received it leased (nil otherwise); the engine takes ownership on
// every path, including refusals. Payloads for an unknown protocol
// are counted Ignored and reported; payloads injected after Close are
// refused with an error wrapping serrors.ErrClosed. A draining engine
// still accepts injection — live sessions need their mid-program
// entries to finish — but refuses the ones that would open a new
// session at admission, reporting them to the sink as drops marked
// serrors.ErrDraining.
func (e *Engine) Inject(proto string, data []byte, src netengine.Source, lease *netapi.Buffer) error {
	codec, ok := e.codecs[proto]
	if !ok {
		if lease != nil {
			lease.Release()
		}
		e.ignored.Add(1)
		return fmt.Errorf("engine: %s: no codec for protocol %q", e.merged.Name, proto)
	}
	key := src.RoutingKey()
	lane := e.classifyLane(codec.Spec.Protocol, key, src)
	w := e.workers[key.Hash()%uint32(len(e.workers))]
	if !e.offer(w, lane, ingestJob{codec: codec, key: key, data: data, src: src, lease: lease, arrived: time.Now()}) {
		return serrors.Mark(fmt.Errorf("engine: %s is closed", e.merged.Name), serrors.ErrClosed)
	}
	e.ingestTotal.Add(1)
	if src.Batch > 1 {
		e.ingestBatched.Add(1)
	}
	return nil
}

// AwaitsEntry reports whether some live session is blocked on — or
// running towards — a receive of the given (protocol, message),
// preferring none in particular — it is
// the dispatcher's routing probe for entry payloads that are not
// initiator requests (e.g. the control point's description GET in the
// reverse-UPnP cases). The answer is a snapshot and may go stale by
// delivery time; the engine re-checks on delivery, so a stale true is
// harmless (the payload is rerouted or counted Ignored).
func (e *Engine) AwaitsEntry(proto, msg, ip string) bool {
	return e.table.findAwaiting(proto, msg, ip) != nil
}

// Close stops the engine immediately: it refuses further injection,
// stops the ingest workers, and once no worker runs any more it ends
// every session still live, on the calling goroutine, with an error
// wrapping serrors.ErrClosed, and closes the requester sockets the
// workers were lending; last it reports Undeployed. Every teardown ends
// here, and only the first call does the work. For a graceful stop that
// lets live sessions finish first, use Shutdown.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	// state is the single source of truth for the lifecycle; the swap
	// under the write lock doubles as the idempotence latch.
	already := State(e.state.Swap(int32(StateClosed))) == StateClosed
	e.closeMu.Unlock()
	if already {
		return nil
	}
	// Closing the queues wakes the ingest workers (Dequeue returns
	// false), releases any gate hold a pressured queue has taken — so
	// paused transport read loops wake for teardown — and hands back
	// the tokens of jobs the workers never picked up, which end here.
	// offer holds closeMu.RLock around its token+enqueue, and closed was
	// flipped under the write lock, so no job can slip in after this.
	for _, w := range e.workers {
		w.q.Close(func(_ lanes.Lane, job ingestJob) {
			w.done(&job)
			e.node.WorkDone()
		})
	}
	e.workerWG.Wait()
	// With the workers gone nothing else touches session state: forcible
	// teardown still reports through sessionDone so every session is
	// counted (Failed) and observers see its end — sessions must never
	// vanish from the metrics surface. Oldest first, so the event order
	// does not depend on map iteration.
	live := e.table.removeAll()
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	for _, s := range live {
		e.sessionDone(s, serrors.Mark(
			fmt.Errorf("engine: %s: session from %s torn down before completion",
				e.merged.Name, s.origin.Addr),
			serrors.ErrClosed))
	}
	// Every lent socket is back with its worker now; they go last.
	for _, w := range e.workers {
		for slot, idle := range w.idle {
			for _, r := range idle {
				e.closeRequester(r)
			}
			w.idle[slot] = nil
		}
	}
	e.signalDrained() // a closed engine has, vacuously, drained
	if e.sink != nil {
		e.sink.Undeployed(e.merged.Name)
	}
	return nil
}

// Shutdown drains the engine gracefully: it stops admitting new
// sessions immediately (initiator requests arriving from now on are
// refused and reported with serrors.ErrDraining), keeps delivering
// payloads to live sessions so they can finish, and closes the engine
// once the last session ends. If ctx expires first the remaining
// sessions are torn down and the returned error wraps ctx.Err().
// Shutdown of an already closed engine returns nil.
func (e *Engine) Shutdown(ctx context.Context) error {
	if State(e.state.Load()) == StateClosed {
		return nil
	}
	e.BeginDrain()
	select {
	case <-e.drained:
		return e.Close()
	case <-ctx.Done():
		// Both channels may be ready (last session finished right at
		// the deadline, or a zero timeout on an already-idle engine),
		// and the last session may finish between the two checks — a
		// drain that completed is never an error, so an empty table
		// counts as success even if the signal hasn't landed yet.
		select {
		case <-e.drained:
			return e.Close()
		default:
		}
		live := e.table.live() // before Close empties the table
		if live == 0 {
			return e.Close()
		}
		_ = e.Close()
		return fmt.Errorf("engine: %s: drain aborted with %d live session(s): %w",
			e.merged.Name, live, ctx.Err())
	}
}

// BeginDrain flips the engine into StateDraining without blocking:
// initiator requests are refused with serrors.ErrDraining from the
// moment it returns, while live sessions keep running to completion.
// It is the non-blocking prefix of Shutdown, split out so a
// deterministic test harness can start a drain from inside a
// simulator event callback — where Shutdown's wait for the last
// session would deadlock the event loop that must deliver the very
// payloads those sessions are waiting for. No-op on an engine that is
// already draining or closed.
func (e *Engine) BeginDrain() {
	for {
		s := e.state.Load()
		if s == int32(StateClosed) || s == int32(StateDraining) {
			return
		}
		if e.state.CompareAndSwap(s, int32(StateDraining)) {
			break
		}
	}
	// Live is read under finishMu, the lock that orders session finish,
	// so the "last session already gone" case cannot race sessionDone's
	// own drain check.
	e.finishMu.Lock()
	if e.table.live() == 0 {
		e.signalDrained()
	}
	e.finishMu.Unlock()
}

// signalDrained marks the drain as complete (idempotent).
func (e *Engine) signalDrained() {
	e.drainOnce.Do(func() { close(e.drained) })
}

// reportDrop reports a refused payload or session with its structured
// reason.
func (e *Engine) reportDrop(origin netapi.Addr, reason error) {
	if e.sink != nil {
		e.sink.Dropped(e.merged.Name, origin, reason)
	}
}

// releaseSlot returns a max-sessions semaphore slot.
func (e *Engine) releaseSlot() { <-e.sem }

// classifyLane assigns an entry payload its priority lane. A payload
// whose routing key has a live session is mid-session data; the
// initiator protocol's payloads are control (session entry and
// classification); a stream payload comes from a connected peer that
// already committed to a session-oriented exchange; anything else —
// multicast chatter, advert/demo traffic no session asked for — is
// telemetry, shed first under pressure.
func (e *Engine) classifyLane(proto string, key netengine.RoutingKey, src netengine.Source) lanes.Lane {
	if e.table.contains(sessionKey{RoutingKey: key}) {
		return lanes.Data
	}
	if proto == e.program[0].Protocol {
		return lanes.Control
	}
	if src.IsStream() {
		return lanes.Data
	}
	return lanes.Telemetry
}

// offer takes a work token for job and enqueues it on w's queue. The
// read lock makes the closed-check + token + enqueue atomic with respect
// to Close, so no token or job can leak past shutdown. A closed engine
// refuses the job: it ends here and offer returns false — the one
// refusal, which Inject reports as ErrClosed. Anything else the queue
// decides, and a shed job is dropped and reported as overload.
func (e *Engine) offer(w *worker, lane lanes.Lane, job ingestJob) bool {
	e.closeMu.RLock()
	if e.State() == StateClosed {
		e.closeMu.RUnlock()
		w.done(&job)
		return false
	}
	e.node.WorkAdd()
	verdict, victim := w.q.Enqueue(lane, job)
	// The sink is called outside closeMu: a callback reacting to the drop
	// (even one that tears the deployment down from a fresh goroutine)
	// must not deadlock against Close's write lock. The work token is
	// still held through the call so that on a virtual-clock runtime,
	// quiescence implies the observers have already seen the drop.
	e.closeMu.RUnlock()
	if verdict == lanes.Evicted {
		// The new job was admitted by displacing the oldest queued item
		// of its lane; that victim is the drop.
		job = victim
	}
	if verdict != lanes.Admitted {
		e.shedJob(w, job, lane.String()+" lane")
	}
	return true
}

// post queues a payload job for one life of s on the data lane of the
// worker that owns it, under the per-session cap: a session that cannot
// keep up has its excess payloads dropped (counted in Dropped) instead
// of filling its worker's ring — UDP semantics end to end.
func (e *Engine) post(s *session, life uint32, job ingestJob) {
	job.sess, job.gen = s, life
	if s.queued.Add(1) <= sessionQueueCap {
		e.offer(s.w, lanes.Data, job)
		return
	}
	e.node.WorkAdd() // held through the drop report, like offer's
	e.shedJob(s.w, job, "session queue")
}

// shedJob accounts one payload shed by w's lane queue or a session's
// cap: the job ends, the drop is counted and reported as ErrOverloaded,
// and its work token is returned.
func (e *Engine) shedJob(w *worker, job ingestJob, by string) {
	w.done(&job)
	if job.sess != nil {
		job.sess.queued.Add(-1)
	}
	e.dropped.Add(1)
	e.reportDrop(job.src.Addr, serrors.Mark(
		fmt.Errorf("engine: %s: %s shed payload from %s", e.merged.Name, by, job.src.Addr),
		serrors.ErrOverloaded))
	e.node.WorkDone()
}

// deliverTimer queues a fired receive timer for its session. Timer
// delivery is guaranteed: the control lane never evicts and drains
// first, and when its ring refuses the timer the delivery is retried —
// holding no token in between, so a virtual-clock runtime can advance
// to the retry — rather than dropped, because a lost timer would stall
// the session forever and leak its max-sessions slot.
func (e *Engine) deliverTimer(s *session, gen uint32) {
	e.closeMu.RLock()
	if e.State() == StateClosed {
		e.closeMu.RUnlock()
		return
	}
	e.node.WorkAdd()
	verdict, _ := s.w.q.Enqueue(lanes.Control, ingestJob{sess: s, kind: jobTimer, gen: gen})
	e.closeMu.RUnlock()
	if verdict == lanes.Rejected {
		e.node.WorkDone()
		e.node.After(time.Millisecond, func() { e.deliverTimer(s, gen) })
	}
}

// ingestLoop is one ingest worker: it runs every job of its queue to
// completion — a session's steps included — before taking the next, so
// everything it owns is touched by this goroutine alone.
func (e *Engine) ingestLoop(w *worker) {
	defer e.workerWG.Done()
	for {
		job, lane, ok := w.q.Dequeue()
		if !ok {
			return // queue closed
		}
		if !job.arrived.IsZero() {
			e.laneHists[lane].Record(time.Since(job.arrived))
		}
		if job.sess != nil {
			job.sess.handle(&job)
		} else {
			e.ingest(w, &job)
		}
		w.done(&job)
		e.node.WorkDone()
	}
}

// parse runs a job's payload through its codec into a message w draws,
// which the job holds (msg) until a session adopts it, and times the
// recv and parse stages. The job's buffer lease ends here — the parse
// copies everything it keeps into the message, so the receive buffer
// goes back to its pool before anything is routed or delivered.
func (e *Engine) parse(w *worker, job *ingestJob) (ingestTiming, error) {
	tm := ingestTiming{arrived: job.arrived, picked: time.Now(), bytes: len(job.data)}
	job.msg = w.draw(job.codec.Spec.Protocol, "")
	err := job.codec.Parser.ParseInto(job.msg, job.data)
	tm.parsed = time.Now()
	job.releaseLease()
	if !tm.arrived.IsZero() {
		e.stageHists[trace.StageRecv].Record(tm.picked.Sub(tm.arrived))
	}
	e.stageHists[trace.StageParse].Record(tm.parsed.Sub(tm.picked))
	if err != nil {
		e.parseErrors.Add(1)
	}
	return tm, err
}

// ingest parses one entry payload and routes it: an initiator request
// opens (or rendezvouses with) a keyed session on this worker; anything
// else goes to the worker of a session awaiting that message. A message
// no session adopts ends with the job.
func (e *Engine) ingest(w *worker, job *ingestJob) {
	tm, err := e.parse(w, job)
	if err != nil {
		return
	}
	proto, name := job.codec.Spec.Protocol, job.msg.Name
	first := e.program[0]
	if proto == first.Protocol && name == first.Message {
		e.openSession(w, job, tm)
		return
	}
	// Route to a session awaiting this message on this protocol,
	// preferring one opened by the same peer host.
	if s := e.table.findAwaiting(proto, name, job.src.Addr.IP); s != nil {
		life := s.life.Load()
		s.recordIngest(tm, trace.OutcomeOK)
		e.post(s, life, ingestJob{kind: jobEntry, codec: job.codec, msg: job.adopt(), src: job.src})
		return
	}
	e.ignored.Add(1)
}

// openSession handles an initiator request on the worker owning its
// routing key — the worker that also admitted, and therefore owns,
// whatever session is registered under that key. If that session is
// blocked on exactly this message, the payload is delivered to it (a
// rendezvous/re-delivery). Otherwise — no session under the key, or a
// live one already past this message (a legacy client reusing one
// socket for a new interaction) — an independent session is admitted,
// under a uniquified key when the base key is taken. One session per
// initiator request, as in the paper.
func (e *Engine) openSession(w *worker, job *ingestJob, tm ingestTiming) {
	key := sessionKey{RoutingKey: job.key}
	sh := e.table.shardFor(key)
	sh.mu.RLock()
	s := sh.sessions[key]
	sh.mu.RUnlock()
	if s != nil && s.waitsFor(job.codec, job.msg.Name) {
		s.recordIngest(tm, trace.OutcomeOK)
		s.deliverEntry(job)
		return
	}
	seq := e.sessionSeq.Add(1)
	if s != nil {
		// The keyed session is mid-program: this is a new interaction
		// from the same client socket. Give it its own key.
		key.n = seq
	}
	e.admit(w, key, seq, job, tm)
}

// admit registers a new session under key against the max-sessions
// semaphore and runs it to its first receive, or refuses the request.
// The lifecycle check and the insert share the shard lock, so a drain
// that starts concurrently either refuses this session or counts it
// live. The new session adopts the job's message.
func (e *Engine) admit(w *worker, key sessionKey, seq uint64, job *ingestJob, tm ingestTiming) {
	src := job.src
	sh := e.table.shardFor(key)
	sh.mu.Lock()
	switch State(e.state.Load()) {
	case StateClosed:
		sh.mu.Unlock()
		return
	case StateDraining:
		// Rendezvous deliveries to live sessions were handled by the
		// caller; only brand-new sessions reach here, and a draining
		// engine admits none.
		sh.mu.Unlock()
		e.refuse(&e.drainRejected, src, serrors.ErrDraining, "engine is draining")
		return
	}
	select {
	case e.sem <- struct{}{}:
	default:
		sh.mu.Unlock()
		e.refuse(&e.rejected, src, serrors.ErrOverloaded, fmt.Sprintf("max sessions (%d) live", e.maxSessions))
		return
	}
	s := e.newSession(w, key, seq, job.adopt(), src, tm)
	sh.sessions[key] = s
	sh.mu.Unlock()
	if e.sink != nil {
		e.sink.SessionStart(e.merged.Name, src.Addr, s.start)
	}
	s.advance()
}

// refuse counts and reports an initiator request that opens no session;
// its message ends with the job. The worker still holds the job's token,
// so quiescence implies observers saw the rejection.
func (e *Engine) refuse(counter *atomic.Int64, src netengine.Source, kind error, why string) {
	counter.Add(1)
	e.reportDrop(src.Addr, serrors.Mark(
		fmt.Errorf("engine: %s: new session from %s rejected: %s", e.merged.Name, src.Addr, why), kind))
}

// rerouteEntry gives an entry message that reached a session already
// past the awaited state one more chance to find the session actually
// awaiting it: the original routing choice is made from a lock-free
// await snapshot, which can go stale by delivery time, and the payload
// would otherwise starve the session it was meant for. One hop only; if
// no other session awaits it, the message is counted Ignored and ends
// with the job.
func (e *Engine) rerouteEntry(s *session, job *ingestJob) {
	if !job.rerouted {
		if s2 := e.table.findAwaiting(job.codec.Spec.Protocol, job.msg.Name, job.src.Addr.IP); s2 != nil && s2 != s {
			e.post(s2, s2.life.Load(), ingestJob{kind: jobEntry, codec: job.codec, msg: job.adopt(), src: job.src, rerouted: true})
			return
		}
	}
	e.ignored.Add(1)
}

// sessionDone finishes a session and hands its struct back to its
// worker: nothing may touch s afterwards. Callers own the session's
// state: its ingest worker, or Close once the workers are gone.
func (e *Engine) sessionDone(s *session, err error) {
	s.cleanup()
	end := e.node.Now()
	stats := SessionStats{
		Origin:  s.origin.Addr,
		Start:   s.start,
		ReplyAt: s.replyAt,
		End:     end,
		Err:     err,
	}
	if !s.replyAt.IsZero() {
		stats.Duration = s.replyAt.Sub(s.start)
	} else {
		stats.Duration = end.Sub(s.start)
	}
	e.sessHist.Record(stats.Duration)
	if err != nil {
		// A failed session surfaces its flight-recorder dump so the
		// failure can be diagnosed (and replayed) stage by stage.
		stats.Trace = s.rec.Events()
	}
	// Removal and counter update happen under one lock so Counts never
	// sees the session in neither Live nor Completed/Failed. The drain
	// check rides the same critical section: a draining engine whose
	// last session just left the table signals exactly once.
	e.finishMu.Lock()
	e.table.remove(s.key, s)
	if err != nil {
		e.failed++
	} else {
		e.completed++
	}
	if State(e.state.Load()) == StateDraining && e.table.live() == 0 {
		e.signalDrained()
	}
	e.finishMu.Unlock()
	s.w.recycle(s)
	e.releaseSlot()
	if e.sink != nil {
		e.sink.SessionEnd(e.merged.Name, stats)
	}
}
