package provision

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/engine"
	"starlink/internal/hist"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/parser"
	"starlink/internal/registry"
	"starlink/internal/serrors"
)

// Option configures a Dispatcher.
type Option func(*Dispatcher)

// WithCases restricts the dispatcher to an explicit case list instead
// of hosting every case in the registry. Sync fails if an explicitly
// requested case is not loaded.
func WithCases(names ...string) Option {
	return func(d *Dispatcher) { d.cases = names }
}

// WithEngineOptions passes engine options (max sessions, timeouts,
// jitter, ...) to every engine the dispatcher deploys.
func WithEngineOptions(opts ...engine.Option) Option {
	return func(d *Dispatcher) { d.engOpts = opts }
}

// WithContext ties the dispatcher's lifetime to ctx: when ctx is
// cancelled the dispatcher closes, undeploying every hosted case.
func WithContext(ctx context.Context) Option {
	return func(d *Dispatcher) {
		if ctx != nil {
			d.ctx = ctx
		}
	}
}

// WithSink sets the sink the dispatcher reports its events to, and hands
// to every engine it deploys (see Sink).
func WithSink(sink Sink) Option {
	return func(d *Dispatcher) { d.sink = sink }
}

// Sink receives every event of a dispatcher deployment: what each hosted
// engine reports (engine.Sink — the dispatcher hands the same value to
// all of them) plus the dispatcher's own: a Deployed and an Undeployed
// per case it deploys and a Classified per payload it dispatches. Drops
// the dispatcher itself decides — the chosen engine already closed —
// arrive through Dropped like an engine's. Calls come from the
// listeners', the workers' and the reconciling goroutines and are not
// serialised; a nil sink costs one branch per event.
type Sink interface {
	engine.Sink
	// Deployed announces a case about to serve traffic, with the registry
	// generation its artifacts were compiled at. It has returned before
	// the case's entry points are published on the listeners, so it
	// precedes every event of the case's sessions. It runs inside the
	// reconciliation, under the lock that serialises Syncs, so it must
	// not call Sync.
	Deployed(caseName string, generation uint64)
	// Undeployed announces a case torn down, once per Deployed, after
	// the case's last session event: when a Sync retires it, after its
	// engine has closed; when the dispatcher closes — by Close, Shutdown
	// or context cancellation — after the bridge host is released too.
	// Cases closed together are reported in name order.
	Undeployed(caseName string)
	// Classified fires for every payload handed to an engine, after
	// classification. Events with Ambiguous set carry an Err marked
	// serrors.ErrAmbiguousPayload and the full candidate list.
	Classified(ev ClassifyEvent)
}

// ClassifyEvent describes one classified entry payload.
type ClassifyEvent struct {
	// Case is the case the payload was dispatched to.
	Case string
	// Protocol and Message identify the classified entry message.
	Protocol string
	Message  string
	// Origin is the payload's source address.
	Origin netapi.Addr
	// Candidates lists every matching case when the classification was
	// ambiguous (nil otherwise).
	Candidates []string
	// Ambiguous reports whether more than one case matched.
	Ambiguous bool
	// Err is non-nil for ambiguous classifications, marked with
	// serrors.ErrAmbiguousPayload.
	Err error
}

// DispatchCounters snapshots the dispatcher's classification counters.
// Each classified payload is counted once, in exactly one of
// Dispatched, Rejected, Unroutable or ParseErrors; their sum is the
// number of classifications.
type DispatchCounters struct {
	// Dispatched counts payloads an engine accepted.
	Dispatched int
	// Ambiguous counts payloads that matched the entry parser of more
	// than one case (each was still dispatched, deterministically).
	Ambiguous int
	// Unroutable counts payloads that parsed under some candidate
	// protocol but matched no case's entry message and no awaiting
	// session.
	Unroutable int
	// ParseErrors counts payloads no candidate entry parser accepted.
	ParseErrors int
	// Suppressed counts payloads originating from this dispatcher's
	// own bridge sessions (their requester sockets): the deployment
	// hearing its own multicast requests. Re-bridging those through an
	// opposite-direction case would loop traffic forever.
	Suppressed int
	// Rejected counts payloads that classified to a case whose engine
	// refused them outright (already closed — e.g. one engine finished
	// draining before the rest during Shutdown).
	Rejected int
	// Framing counts stream connections dropped because where their
	// next frame starts was lost — on the shared listeners and on the
	// cases' requesters — and is no classification.
	Framing int
}

// Snapshot is everything the dispatcher exposes about itself at one
// instant: its lifecycle state, the classification counters and
// decision latencies of the shared listeners, and one engine.Snapshot
// per hosted case. Like the engine's it comes in two reads — Counts,
// cheap, and Snapshot, which adds every distribution.
type Snapshot struct {
	State    engine.State
	Dispatch DispatchCounters
	// ClassifyFast times the classification decision itself; left zero
	// by Counts.
	ClassifyFast hist.Snapshot
	// Cases holds every deployed case and, once the dispatcher is
	// closed, the final snapshot of every case it closed with.
	Cases map[string]engine.Snapshot
	// RetiredMessages is the message balance of the engines Sync
	// retired, read when each closed.
	RetiredMessages int
}

// Messages is the message balance of every engine the dispatcher has
// hosted: each case's and the retired engines'. It reads zero at
// quiescence with no session live and after Close, or some owner
// dropped a message.
func (s Snapshot) Messages() int {
	n := s.RetiredMessages
	for _, c := range s.Cases {
		n += c.Messages
	}
	return n
}

// sortedMapKeys returns m's string keys sorted. Reconciliation paths
// iterate with it instead of ranging the map directly: deploy, bind
// and teardown order decide which socket gets which ephemeral port and
// when close events fire, and on a simulated network those choices are
// part of the observable schedule — map order would make two runs of
// one seed diverge.
func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// deployment is one hosted case: its engine plus the compiled
// artifacts it was deployed from (pointer identity against
// registry.Compiled detects staleness).
type deployment struct {
	name     string
	compiled *registry.CompiledCase
	eng      *engine.Engine
}

// entryPoint is one case's claim on a listener color: the protocol it
// receives there, the parser that classifies it and, for the initiator
// protocol, the message that opens a session.
type entryPoint struct {
	dep       *deployment
	proto     string
	parser    *parser.Parser
	initiator bool
	initMsg   string
}

// listener is one shared entry listener: a bound color's closer plus
// the entry points of every case currently listening on it, sorted by
// case name so classification ties break deterministically.
type listener struct {
	closer netapi.Closer
	points []entryPoint
}

// Dispatcher hosts every loaded (or explicitly selected) case of a
// registry on one bridge node at once — or one case, which is what a
// single-case bridge is. It owns the entry listeners — one per distinct
// entry color across all deployed cases — and classifies each inbound
// payload against the candidate entry protocols with their parsers'
// Classify ("entry sniffing"), then hands it to the engine of the case
// it belongs to. Engines never bind entry sockets of their own, so
// two cases sharing an entry endpoint (e.g. both SLP-initiated bridges
// on the SLP multicast group) coexist without port conflicts or
// duplicate deliveries.
//
// Sync reconciles the deployments with the registry's current state
// and is cheap when nothing changed, so it can run after every model
// reload; payload dispatch proceeds concurrently under a read lock.
type Dispatcher struct {
	reg  *registry.Registry
	node netapi.Node
	net  *netengine.Engine
	// gate is the flow gate shared by every hosted engine's ingest
	// queues and the dispatcher's entry listeners: when any engine's
	// queue crosses its high watermark the listeners' read loops pause,
	// and they resume once it drains to its low watermark.
	gate *netapi.FlowGate
	// egress tracks the requester sockets of every hosted engine so
	// dispatch can suppress the deployment's own outbound requests.
	egress *netengine.EgressTable

	cases   []string // explicit case filter; nil hosts all
	engOpts []engine.Option
	sink    Sink
	// ownsNode is set by Deploy, which created the node for this
	// dispatcher alone: Close releases it.
	ownsNode bool
	ctx      context.Context

	// state moves strictly forward: Running → (Draining →) Closed.
	state atomic.Int32
	// quit ends the context watcher when the dispatcher closes first.
	quit chan struct{}

	// syncMu runs one reconciliation at a time: between deploying a case
	// and publishing it, no other Sync may rebind the listeners.
	syncMu    sync.Mutex
	mu        sync.RWMutex
	deployed  map[string]*deployment
	listeners map[string]*listener // by color key
	closed    bool
	// final holds each case's engine snapshot from Close on, so Snapshot
	// (and the public Metrics) stay truthful on a closed dispatcher.
	final map[string]engine.Snapshot
	// retiredMessages is the message balance the engines Sync closed
	// were left with: a changed case lives on under its name in a fresh
	// engine, so no entry of Cases reads the old one.
	retiredMessages int

	// classifyHist times the classification decision itself.
	classifyHist hist.Histogram

	statsMu  sync.Mutex
	counters DispatchCounters
}

// NewDispatcher builds a dispatcher for the registry on the node. Call
// Sync to deploy; the zero deployment set serves nothing.
func NewDispatcher(reg *registry.Registry, node netapi.Node, opts ...Option) *Dispatcher {
	gate := netapi.NewFlowGate()
	d := &Dispatcher{
		reg:       reg,
		node:      node,
		net:       netengine.New(node, netengine.WithGate(gate)),
		gate:      gate,
		egress:    netengine.NewEgressTable(),
		deployed:  map[string]*deployment{},
		listeners: map[string]*listener{},
		ctx:       context.Background(),
		quit:      make(chan struct{}),
	}
	for _, o := range opts {
		o(d)
	}
	d.state.Store(int32(engine.StateStarting))
	if d.ctx.Done() != nil {
		ctx := d.ctx
		go func() {
			select {
			case <-ctx.Done():
				_ = d.Close()
			case <-d.quit:
			}
		}()
	}
	return d
}

// Deploy creates the bridge host hostIP on rt and hosts the named cases
// of reg on it through one dispatcher — every loaded case when cases is
// empty. The dispatcher owns the node: Close and Shutdown release it, as
// does every failed-deploy path. Call Sync on the dispatcher after
// mutating the registry (or drive it from a Watcher) to pick up model
// changes with zero restart.
//
// ctx governs both the deploy and the dispatcher's lifetime (like
// exec.CommandContext): already cancelled it aborts the deploy, and
// cancelling it later closes the dispatcher.
func Deploy(ctx context.Context, reg *registry.Registry, rt netapi.Runtime, hostIP string, cases []string, opts ...Option) (*Dispatcher, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("provision: deploy dispatcher: %w", err)
	}
	node, err := rt.NewNode(hostIP)
	if err != nil {
		return nil, fmt.Errorf("provision: bridge host: %w", err)
	}
	if len(cases) > 0 {
		opts = append(opts, WithCases(cases...))
	}
	opts = append(opts, WithContext(ctx), func(d *Dispatcher) { d.ownsNode = true })
	d := NewDispatcher(reg, node, opts...)
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		_ = d.Close()
		return nil, fmt.Errorf("provision: deploy dispatcher: %w", err)
	}
	return d, nil
}

// State returns the dispatcher's lifecycle state.
func (d *Dispatcher) State() engine.State { return engine.State(d.state.Load()) }

// desiredCases resolves the case list to host. With an explicit filter
// every name must be loaded; otherwise all loaded cases are desired.
func (d *Dispatcher) desiredCases() ([]string, error) {
	if d.cases == nil {
		return d.reg.MergedNames(), nil
	}
	loaded := map[string]bool{}
	for _, n := range d.reg.MergedNames() {
		loaded[n] = true
	}
	var missing []string
	for _, n := range d.cases {
		if !loaded[n] {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		return nil, serrors.Mark(fmt.Errorf("provision: case(s) not loaded: %s (have %s)",
			strings.Join(missing, ", "), strings.Join(d.reg.MergedNames(), ", ")),
			serrors.ErrUnknownCase)
	}
	out := append([]string(nil), d.cases...)
	sort.Strings(out)
	return out, nil
}

// Sync reconciles the hosted deployments with the registry: new cases
// are compiled (from the registry's compiled-case cache) and deployed,
// cases whose models changed are redeployed, and unloaded cases are
// undeployed. Shared entry listeners are rebound to match. Unchanged
// cases are left entirely alone — same engine, same sessions — so a
// Sync with nothing changed is a cheap no-op.
func (d *Dispatcher) Sync() error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	names, err := d.desiredCases()
	if err != nil {
		return err
	}
	desired := make(map[string]*registry.CompiledCase, len(names))
	for _, n := range names {
		c, err := d.reg.Compiled(n)
		if err != nil {
			return fmt.Errorf("provision: case %s: %w", n, err)
		}
		desired[n] = c
	}
	d.mu.RLock()
	err = d.syncErrLocked()
	var todo []string
	for _, name := range names {
		if dep, ok := d.deployed[name]; !ok || dep.compiled != desired[name] {
			todo = append(todo, name)
		}
	}
	d.mu.RUnlock()
	if err != nil {
		return err
	}

	// Deploy new or changed cases, unpublished: no listener reaches them
	// yet. names is sorted, so engines come up — and allocate their
	// sockets and ephemeral ports — in deterministic order. A failing
	// deploy does not abort the reconciliation: the listeners must still
	// be rebound to the cases that ARE live, or stale entry points would
	// keep routing payloads to engines closed below.
	var deployErr error
	var fresh []*deployment
	for _, name := range todo {
		dep, err := d.deploy(name, desired[name])
		if err != nil {
			if deployErr == nil {
				deployErr = fmt.Errorf("provision: deploying %s: %w", name, err)
			}
			continue
		}
		fresh = append(fresh, dep)
	}
	// Reported before the rebind publishes the cases, so no session event
	// of a case can precede its Deployed, and outside d.mu, so a callback
	// may call back into the dispatcher (Cases, Snapshot) — but not Sync,
	// whose syncMu this reconciliation holds.
	if d.sink != nil {
		for _, dep := range fresh {
			d.sink.Deployed(dep.name, dep.compiled.Generation)
		}
	}

	d.mu.Lock()
	if err := d.syncErrLocked(); err != nil {
		// Closed or draining meanwhile: what was deployed above was never
		// published, so nothing but this Sync can close it.
		d.mu.Unlock()
		d.closeAll(fresh, nil)
		d.retire(fresh)
		d.undeployed(fresh)
		return err
	}
	// Undeploy removed or changed cases. Iteration is sorted so that
	// teardown — and with it the socket-close events a simulated run
	// traces — happens in the same order every time; map order here
	// would break the DST determinism contract.
	var stale []*deployment
	for _, name := range sortedMapKeys(d.deployed) {
		dep := d.deployed[name]
		if c, ok := desired[name]; ok && c == dep.compiled {
			continue
		}
		delete(d.deployed, name)
		stale = append(stale, dep)
	}
	for _, dep := range fresh {
		d.deployed[dep.name] = dep
	}
	staleListeners, err := d.rebindLocked()
	d.mu.Unlock()
	d.closeAll(stale, staleListeners)
	d.retire(stale)
	d.undeployed(stale)
	if deployErr != nil {
		return deployErr
	}
	if err == nil {
		// First successful reconciliation: the dispatcher is serving.
		d.state.CompareAndSwap(int32(engine.StateStarting), int32(engine.StateRunning))
	}
	return err
}

// syncErrLocked is why a Sync may not reconcile now — the dispatcher is
// closed or draining — or nil. Caller holds d.mu.
func (d *Dispatcher) syncErrLocked() error {
	if d.closed {
		return serrors.Mark(fmt.Errorf("provision: dispatcher is closed"), serrors.ErrClosed)
	}
	if d.State() == engine.StateDraining {
		return serrors.Mark(fmt.Errorf("provision: dispatcher is draining"), serrors.ErrDraining)
	}
	return nil
}

// retire books the message balance of deployments Sync has closed.
func (d *Dispatcher) retire(deps []*deployment) {
	n := 0
	for _, dep := range deps {
		n += dep.eng.Counts().Messages
	}
	d.mu.Lock()
	d.retiredMessages += n
	d.mu.Unlock()
}

// deploy builds and starts an engine for one case; Sync publishes it.
func (d *Dispatcher) deploy(name string, c *registry.CompiledCase) (*deployment, error) {
	opts := append([]engine.Option(nil), d.engOpts...)
	opts = append(opts, engine.WithEgressTable(d.egress), engine.WithFlowGate(d.gate))
	if d.sink != nil {
		opts = append(opts, engine.WithSink(d.sink))
	}
	eng, err := engine.New(d.node, c.Merged, c.Codecs, opts...)
	if err != nil {
		return nil, err
	}
	eng.Start()
	return &deployment{name: name, compiled: c, eng: eng}, nil
}

// rebindLocked reconciles the shared listeners with the deployed
// cases' entry colors: existing listeners get fresh entry-point sets,
// new colors are bound, orphaned listeners are returned for closing.
// Caller holds d.mu.
func (d *Dispatcher) rebindLocked() ([]netapi.Closer, error) {
	type spec struct {
		color  automata.Color
		points []entryPoint
	}
	needed := map[string]*spec{}
	for _, dep := range d.deployed {
		init := dep.compiled.Program[0]
		for proto, color := range dep.compiled.Entries {
			key := color.Key()
			s := needed[key]
			if s == nil {
				s = &spec{color: color}
				needed[key] = s
			}
			s.points = append(s.points, entryPoint{
				dep:       dep,
				proto:     proto,
				parser:    dep.compiled.Codecs[proto].Parser,
				initiator: proto == init.Protocol,
				initMsg:   init.Message,
			})
		}
	}
	for _, s := range needed {
		sort.Slice(s.points, func(i, j int) bool {
			if s.points[i].dep.name != s.points[j].dep.name {
				return s.points[i].dep.name < s.points[j].dep.name
			}
			return s.points[i].proto < s.points[j].proto
		})
	}

	// Both walks are sorted: listener close and bind order decides
	// which socket gets which ephemeral port, and a simulated run's
	// event trace must not depend on map iteration.
	var stale []netapi.Closer
	for _, key := range sortedMapKeys(d.listeners) {
		l := d.listeners[key]
		if s, ok := needed[key]; ok {
			l.points = s.points // refresh candidates on the kept binding
			continue
		}
		stale = append(stale, l.closer)
		delete(d.listeners, key)
	}
	for _, key := range sortedMapKeys(needed) {
		s := needed[key]
		if _, ok := d.listeners[key]; ok {
			continue
		}
		l := &listener{points: s.points}
		// A color carries one protocol's network semantics, so every
		// candidate shares the framer; take it from the first.
		framer := s.points[0].dep.compiled.Codecs[s.points[0].proto].Framer
		key := key
		closer, err := d.net.Listen(s.color, framer, func(data []byte, src netengine.Source, lease *netapi.Buffer) {
			d.dispatch(key, data, src, lease)
		})
		if err != nil {
			return stale, fmt.Errorf("provision: binding %s: %w", s.color, err)
		}
		l.closer = closer
		d.listeners[key] = l
	}
	return stale, nil
}

// closeAll closes stale engines and listeners outside the lock.
// Listeners close first so no payload races a draining engine.
func (d *Dispatcher) closeAll(deps []*deployment, listeners []netapi.Closer) {
	for _, c := range listeners {
		_ = c.Close()
	}
	for _, dep := range deps {
		_ = dep.eng.Close()
	}
}

// undeployed reports closed deployments to the sink, in name order.
func (d *Dispatcher) undeployed(deps []*deployment) {
	if d.sink == nil {
		return
	}
	names := make([]string, len(deps))
	for i, dep := range deps {
		names[i] = dep.name
	}
	sort.Strings(names)
	for _, name := range names {
		d.sink.Undeployed(name)
	}
}

// dispatch classifies one inbound payload and hands it to the engine
// of the case it belongs to:
//
//  1. the payload is classified once per candidate protocol by that
//     protocol's parser.Classify, which reads the rule field alone
//     (cases of one registry share specs, so the result is
//     case-independent);
//  2. cases whose initiator entry message matches win first — this is
//     the request that opens a session;
//  3. otherwise cases with a live session awaiting the message win
//     (mid-session entry payloads, e.g. the description GET the
//     bridge serves in reverse-UPnP cases);
//  4. a payload matching several cases is dispatched to the
//     lexicographically first case name — deterministic — and the
//     ambiguity is counted and reported to the sink.
//
// Body validation is the chosen engine's: its parser parses the payload.
func (d *Dispatcher) dispatch(colorKey string, data []byte, src netengine.Source, lease *netapi.Buffer) {
	// The dispatcher owns the payload's buffer lease until it hands the
	// payload to an engine (Inject takes ownership on every path).
	if d.egress.Contains(src) {
		// Our own multicast request echoed back by the group: an
		// opposite-direction case must not bridge it.
		lease.Release()
		d.statsMu.Lock()
		d.counters.Suppressed++
		d.statsMu.Unlock()
		return
	}
	d.mu.RLock()
	l := d.listeners[colorKey]
	if l == nil || d.closed {
		d.mu.RUnlock()
		lease.Release()
		return
	}
	points := l.points // rebind replaces it, never mutates it in place
	d.mu.RUnlock()

	// A payload matches one case, or a few when ambiguous: the matches
	// live in this frame.
	var buf [4]match
	t0 := time.Now()
	matches, anyClassified := classify(buf[:0], points, data, src.Addr.IP)
	classifyDur := time.Since(t0)
	d.classifyHist.Record(classifyDur)

	if len(matches) == 0 {
		d.statsMu.Lock()
		if anyClassified {
			d.counters.Unroutable++
		} else {
			d.counters.ParseErrors++
		}
		d.statsMu.Unlock()
		lease.Release()
		return
	}
	chosen := matches[0]
	// The chosen case owns the per-case classify histogram: the
	// dispatcher measured the decision, the engine files it.
	chosen.pt.dep.eng.RecordClassify(classifyDur)
	if d.sink != nil {
		d.sink.Classified(classifyEvent(matches, src.Addr))
	}
	err := chosen.pt.dep.eng.Inject(chosen.pt.proto, data, src, lease)
	d.statsMu.Lock()
	if err == nil {
		d.counters.Dispatched++
	} else {
		d.counters.Rejected++
	}
	if len(matches) > 1 {
		d.counters.Ambiguous++
	}
	d.statsMu.Unlock()
	if err != nil && d.sink != nil {
		// The chosen engine refused outright — it closed between
		// classification and delivery (e.g. it finished draining ahead
		// of its siblings during Shutdown). While the dispatcher as a
		// whole is still draining, that refusal IS a drain rejection:
		// tag it ErrDraining so observers asserting the documented
		// drain contract see every late arrival, whichever engine it
		// classified to.
		if d.State() == engine.StateDraining {
			err = serrors.Mark(err, serrors.ErrDraining)
		}
		d.sink.Dropped(chosen.pt.dep.name, src.Addr, err)
	}
}

// match is one classified candidate: the entry point plus the message
// name the payload classified as under that point's protocol.
type match struct {
	pt  entryPoint
	msg string
}

// classifyEvent describes a classification that dispatched to
// matches[0]; more than one match makes it ambiguous.
func classifyEvent(matches []match, origin netapi.Addr) ClassifyEvent {
	chosen := matches[0]
	ev := ClassifyEvent{
		Case:     chosen.pt.dep.name,
		Protocol: chosen.pt.proto,
		Message:  chosen.msg,
		Origin:   origin,
	}
	if len(matches) > 1 {
		names := make([]string, len(matches))
		for i, m := range matches {
			names[i] = m.pt.dep.name
		}
		ev.Ambiguous = true
		ev.Candidates = names
		ev.Err = serrors.Mark(
			fmt.Errorf("provision: payload from %s on %s matches cases %s; dispatched to %s",
				origin, chosen.pt.proto, strings.Join(names, ", "), chosen.pt.dep.name),
			serrors.ErrAmbiguousPayload)
	}
	return ev
}

// verdicts memoizes the classification of one payload per protocol, in
// a tiny linear cache: a listener hosts at most a handful of protocols.
type verdicts struct {
	data []byte
	memo [4]struct {
		proto, name string
		ok          bool
	}
	n int
}

func (v *verdicts) classify(p entryPoint) (string, bool) {
	for i := 0; i < v.n; i++ {
		if v.memo[i].proto == p.proto {
			return v.memo[i].name, v.memo[i].ok
		}
	}
	name, ok := p.parser.Classify(v.data)
	if v.n < len(v.memo) {
		v.memo[v.n].proto, v.memo[v.n].name, v.memo[v.n].ok = p.proto, name, ok
		v.n++
	}
	return name, ok
}

// classify resolves the entry points the payload matches, appending
// them to matches: no parsing, and no allocation while they fit the
// caller's buffer. anyClassified reports whether some candidate
// protocol named a message at all.
func classify(matches []match, points []entryPoint, data []byte, srcIP string) (_ []match, anyClassified bool) {
	v := verdicts{data: data}
	for _, p := range points {
		name, ok := v.classify(p)
		if !ok {
			continue
		}
		anyClassified = true
		if p.initiator && name == p.initMsg {
			matches = append(matches, match{pt: p, msg: name})
		}
	}
	if len(matches) == 0 {
		for _, p := range points {
			if name, ok := v.classify(p); ok && p.dep.eng.AwaitsEntry(p.proto, name, srcIP) {
				matches = append(matches, match{pt: p, msg: name})
			}
		}
	}
	return matches, anyClassified
}

// Cases lists the currently deployed case names, sorted.
func (d *Dispatcher) Cases() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.deployed))
	for n := range d.deployed {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Engine returns the live engine for a deployed case.
func (d *Dispatcher) Engine(caseName string) (*engine.Engine, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	dep, ok := d.deployed[caseName]
	if !ok {
		return nil, false
	}
	return dep.eng, true
}

// snapshot assembles a Snapshot, reading each deployed engine with read.
// Cases closed with the dispatcher keep answering from final.
func (d *Dispatcher) snapshot(read func(*engine.Engine) engine.Snapshot) Snapshot {
	s := Snapshot{State: d.State()}
	d.statsMu.Lock()
	s.Dispatch = d.counters
	s.Dispatch.Framing += d.net.FramingDrops()
	d.statsMu.Unlock()
	d.mu.RLock()
	defer d.mu.RUnlock()
	s.RetiredMessages = d.retiredMessages
	s.Cases = make(map[string]engine.Snapshot, len(d.deployed)+len(d.final))
	for name, f := range d.final {
		s.Cases[name] = f
	}
	for name, dep := range d.deployed {
		s.Cases[name] = read(dep.eng)
	}
	for _, c := range s.Cases {
		s.Dispatch.Framing += c.Framing
	}
	return s
}

// Counts reads the dispatcher's state and counters and every case's
// counters and gauges (engine.Counts): cheap enough to poll.
func (d *Dispatcher) Counts() Snapshot {
	return d.snapshot((*engine.Engine).Counts)
}

// Snapshot reads everything Counts does plus every distribution: the
// classification-decision histograms and each case's engine.Snapshot.
func (d *Dispatcher) Snapshot() Snapshot {
	s := d.snapshot((*engine.Engine).Snapshot)
	s.ClassifyFast = d.classifyHist.Snapshot()
	return s
}

// LiveSessions lists each deployed case's currently registered
// sessions. Closed cases contribute nothing (their sessions are gone).
func (d *Dispatcher) LiveSessions() map[string][]engine.LiveSession {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[string][]engine.LiveSession, len(d.deployed))
	for name, dep := range d.deployed {
		if ls := dep.eng.LiveSessions(); len(ls) > 0 {
			out[name] = ls
		}
	}
	return out
}

// snapshotAll reads every deployment's full engine snapshot.
func snapshotAll(deps []*deployment) map[string]engine.Snapshot {
	out := make(map[string]engine.Snapshot, len(deps))
	for _, dep := range deps {
		out[dep.name] = dep.eng.Snapshot()
	}
	return out
}

// Node returns the bridge host node.
func (d *Dispatcher) Node() netapi.Node { return d.node }

// Close undeploys everything immediately: listeners first (stopping
// inflow), then every engine, tearing down their sessions. For a
// graceful stop that lets live sessions finish, use Shutdown.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.state.Store(int32(engine.StateClosed))
	close(d.quit)
	var deps []*deployment
	var closers []netapi.Closer
	for _, l := range d.listeners {
		closers = append(closers, l.closer)
	}
	for _, dep := range d.deployed {
		deps = append(deps, dep)
	}
	d.listeners = map[string]*listener{}
	d.deployed = map[string]*deployment{}
	// A provisional snapshot is taken in the same critical section that
	// empties the deployment map, so Snapshot/Metrics never dip to zero
	// while the engines tear down; it is refreshed with the true final
	// values (teardown failures included) once closeAll returns.
	d.final = snapshotAll(deps)
	d.mu.Unlock()
	d.closeAll(deps, closers)
	final := snapshotAll(deps)
	d.mu.Lock()
	d.final = final
	d.mu.Unlock()
	var err error
	if d.ownsNode {
		err = d.node.Close()
	}
	d.undeployed(deps)
	return err
}

// Shutdown drains the dispatcher gracefully: every hosted engine stops
// admitting new sessions immediately (late initiator requests are
// refused and reported to the sink as drops marked
// serrors.ErrDraining), live sessions keep receiving their mid-program
// entry payloads and run to completion, and once every engine has
// drained — or ctx has expired, whichever comes first — the dispatcher
// closes fully. The returned error wraps ctx.Err() if any engine was
// torn down with sessions still live. Shutdown of an already closed
// dispatcher returns nil.
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	deps, ok := d.drainPrefix()
	if !ok {
		return nil
	}
	drainBegun()
	// Drain every engine concurrently: each already refuses new
	// sessions, and the wait is bounded by the slowest engine (or ctx).
	// Listeners stay bound during the drain so live sessions still
	// receive the entry payloads they are waiting for.
	errs := make([]error, len(deps))
	var wg sync.WaitGroup
	for i, dep := range deps {
		wg.Add(1)
		go func(i int, dep *deployment) {
			defer wg.Done()
			errs[i] = dep.eng.Shutdown(ctx)
		}(i, dep)
	}
	wg.Wait()
	cerr := d.Close()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return cerr
}

// BeginDrain flips the dispatcher and every hosted engine into the
// draining state without blocking: from the moment it returns, new
// initiator requests are refused with serrors.ErrDraining while live
// sessions keep running. It is the non-blocking prefix of Shutdown,
// for callers — the DST scenario engine — that must start a drain from
// inside a simulator event callback and let the event loop run the
// sessions to completion before closing. No-op once closed.
func (d *Dispatcher) BeginDrain() { d.drainPrefix() }

// drainBegun runs in Shutdown between its drain prefix and the engines'
// drains: the window a reported Draining must fence. Tests hook it.
var drainBegun = func() {}

// drainPrefix is what Shutdown and BeginDrain share: it flips every
// engine, then the dispatcher, to Draining — so once State reports
// Draining no engine admits a new session, and Sync refuses — and
// returns the deployments to drain. ok is false, and nothing changes,
// once closed.
func (d *Dispatcher) drainPrefix() (deps []*deployment, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false
	}
	deps = make([]*deployment, 0, len(d.deployed))
	for _, dep := range d.deployed {
		dep.eng.BeginDrain()
		deps = append(deps, dep)
	}
	for {
		s := d.state.Load()
		if s >= int32(engine.StateDraining) || d.state.CompareAndSwap(s, int32(engine.StateDraining)) {
			break
		}
	}
	return deps, true
}
