// Package starlink is a Go implementation of the Starlink framework
// (Bromberg, Grace, Réveillère — "Starlink: runtime interoperability
// between heterogeneous middleware protocols", ICDCS 2011).
//
// Starlink makes two legacy systems that speak different middleware
// protocols interoperate at runtime, with no protocol-specific code:
// everything is driven by loadable high-level models —
//
//   - MDL specifications describing each protocol's message formats,
//     interpreted by generic parsers and composers;
//   - k-colored automata describing each protocol's behaviour and
//     network semantics (transport, ports, multicast, sync/async);
//   - merged automata chaining the protocols with δ-transitions and
//     carrying the translation logic that maps field content across.
//
// The package Example bridges an SLP client to a Bonjour service on the
// deterministic network simulator; ExampleDispatcher_Sync hosts every
// case behind one dispatcher and deploys a seventh at runtime. go test
// runs both and checks their output.
//
// # Lifecycle
//
// Every deployment — a single-case Bridge or a multi-case Dispatcher —
// moves strictly forward through four states: Starting → Running →
// Draining → Closed. The context passed to DeployBridge and
// DeployDispatcher governs both the deploy and the deployment's
// lifetime (like exec.CommandContext): cancelling it closes the
// deployment, tearing down in-flight sessions, at the cost of one
// watcher goroutine per deployment. Shutdown(ctx) drains gracefully
// instead — no new sessions are admitted (late initiator requests are
// refused and observable as drops tagged ErrDraining), live sessions
// run to completion, and ctx bounds how long the drain may take. Close
// tears everything down immediately.
//
// # Errors
//
// Failures are classified under exported sentinels asserted with
// errors.Is: ErrUnknownCase (case not loaded), ErrModelInvalid (model
// failed to parse or validate), ErrOverloaded (capacity bound hit),
// ErrDraining (work refused mid-shutdown), ErrAmbiguousPayload
// (payload classified under several cases) and ErrClosed. The detailed
// message — case name, origin, bound — always travels with the
// sentinel.
//
// # Observability
//
// One Observer interface carries every signal: session start/end,
// dispatch classification, case deploy/undeploy, and drops with their
// structured reasons. Register any number with WithObserver (they
// compose into a chain, invoked in registration order and serialised
// per deployment), implement only what you need via Hooks, and read
// consistent counter snapshots at any time with Deployment.Metrics().
// A case's deploy event is delivered before its entry listeners reach it
// and its undeploy event exactly once, after its last session event and,
// when the deployment closes, after its host is released.
//
// Underneath, each job is done once: a Bridge is a Dispatcher hosting one
// case, so both deploy through one call and serve through one ingress
// path; the internal layers report to a single event sink (the observer
// chain is its only implementation, and a deployment without observers
// pays one nil check per event), each layer exposes one Snapshot struct
// that Metrics is built from, and Framework holds nothing but the
// registry and the runtime (DESIGN.md §10).
//
// Three deeper surfaces sit underneath the counters. Every session
// carries a flight recorder — a fixed-size, allocation-free ring of
// pipeline stage events (stage, offset from arrival, bytes, outcome)
// recorded at each stage boundary; a failed session's trace is dumped
// into SessionStats.Trace, live traces are visible through
// Deployment.Sessions, and WithFlightRecorder sizes or disables the
// ring. Every stage also feeds lock-free staged latency histograms,
// surfaced as quantile-and-bucket rows in Metrics.Latency (aggregate)
// and Metrics.CaseLatency (per case). And a Collector turns any set of
// deployments into an HTTP surface: Prometheus text exposition on
// /metrics and live debug pages (sessions, per-case breakdowns, trace
// dumps) under /debug/starlink/ — see cmd/starlinkd for the wired-up
// daemon.
//
// # Concurrency model
//
// The Automata Engine is a concurrent session runtime. Each initiator
// request opens a session keyed by (entry color, origin address) in a
// sharded session table. A session is data — a program counter plus a
// keyed history of messages — owned by the ingest worker that admitted
// it: that worker runs its receive→translate→compose steps inline, and
// there is no goroutine, channel or context per session. Inbound entry
// payloads flow through bounded, prioritized ingest lanes — control
// (session entry, receive timers) over data (mid-session payloads) over
// telemetry (multicast chatter) — before a worker pool parses and
// routes them. The lanes run at one set of built-in bounds: past their
// high watermark the transport read loops pause (releasing their
// buffers) and telemetry sheds oldest-first, control last; a
// max-sessions semaphore (WithMaxSessions) bounds the live-session
// population on top. Both bounds surface as drops
// tagged ErrOverloaded, so overload degrades into dropped requests
// rather than unbounded memory growth. Timers and requester payloads
// re-enter through the owning worker's lane queue instead of touching
// session state, so session state needs no locks; observers run on the
// workers. On the virtual-clock simulator the engine
// reports in-flight work through a work tracker, which keeps simulated
// runs deterministic; see README.md for the full lifecycle.
//
// See DESIGN.md for the mapping from the paper's formal model to this
// implementation.
package starlink

import (
	"context"
	"fmt"
	"time"

	"starlink/internal/engine"
	"starlink/internal/provision"
)

// State is a deployment's position in its lifecycle. Deployments move
// strictly forward: Starting → Running → (Draining →) Closed.
type State int

const (
	// StateStarting is the window before the deployment accepts
	// traffic.
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
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// stateOf converts an engine lifecycle state to the public one.
func stateOf(s engine.State) State {
	switch s {
	case engine.StateStarting:
		return StateStarting
	case engine.StateRunning:
		return StateRunning
	case engine.StateDraining:
		return StateDraining
	default:
		return StateClosed
	}
}

// SessionInfo describes one currently live session: the case bridging
// it, its session-table key, the initiating client's address, when it
// started, and — when the flight recorder is enabled — the trace
// recorded so far.
type SessionInfo struct {
	Case   string
	Key    string
	Origin string
	Start  time.Time
	Trace  []TraceEvent
}

// Deployment is the management surface shared by every deployed
// connector — single-case bridges and multi-case dispatchers alike:
// lifecycle state, a consistent metrics snapshot, live session
// inspection, graceful drain and immediate teardown.
type Deployment interface {
	// State returns the deployment's lifecycle state.
	State() State
	// Metrics returns a consistent snapshot of the deployment's
	// counters and staged latency distributions.
	Metrics() Metrics
	// Sessions lists the currently live sessions, oldest first within
	// each case. Safe from any goroutine while sessions run; a live
	// trace may show an event mid-overwrite.
	Sessions() []SessionInfo
	// Shutdown drains gracefully: no new sessions, live ones run to
	// completion or until ctx expires, then everything is released.
	Shutdown(ctx context.Context) error
	// Close tears the deployment down immediately.
	Close() error
}

var (
	_ Deployment = (*Bridge)(nil)
	_ Deployment = (*Dispatcher)(nil)
)

// Framework is a Starlink deployment context: a model registry plus a
// network runtime (simulated or real).
type Framework struct {
	reg *Registry
	rt  *Runtime
}

// New creates a framework on the given runtime with the paper's
// case-study models preloaded (four protocol MDLs, eight colored
// automata, six merged automata).
func New(rt *Runtime) (*Framework, error) {
	reg, err := BuiltinRegistry()
	if err != nil {
		return nil, err
	}
	return &Framework{reg: reg, rt: rt}, nil
}

// NewEmpty creates a framework with no models loaded; use
// Framework.Registry to load your own MDL / automaton / merged
// automaton XML at runtime.
func NewEmpty(rt *Runtime) *Framework {
	return &Framework{reg: NewRegistry(), rt: rt}
}

// NewWithRegistry creates a framework sharing an existing model
// registry (and its warm compiled-case cache) — registries are
// runtime-independent (models and codecs hold no sockets), so one model
// corpus can back many deployments without re-parsing or re-validating
// it.
func NewWithRegistry(rt *Runtime, reg *Registry) *Framework {
	return &Framework{reg: reg, rt: rt}
}

// Registry exposes the framework's model registry for loading,
// replacing and unloading models at runtime.
func (f *Framework) Registry() *Registry { return f.reg }

// DeployBridge creates a bridge host with the given IP, instantiates
// the named merged automaton on it and starts listening. The bridge is
// transparent: neither legacy side needs to know it exists. It is
// deployed exactly as a dispatcher hosting the one case, so its entry
// payloads are classified like a dispatcher's (Metrics.Dispatch).
//
// ctx governs both the deploy and the bridge's lifetime: a cancelled
// ctx aborts the deploy (releasing everything already created), and
// cancelling it later closes the bridge, tearing down in-flight
// sessions. Unknown case names fail with ErrUnknownCase.
func (f *Framework) DeployBridge(ctx context.Context, hostIP, caseName string, opts ...Option) (*Bridge, error) {
	d, err := f.deploy(ctx, hostIP, []string{caseName}, opts)
	if err != nil {
		return nil, err
	}
	return &Bridge{d: d, name: caseName}, nil
}

// DeployDispatcher creates a bridge host with the given IP and hosts
// the named cases on it — every loaded case when cases is empty —
// behind shared entry listeners, with inbound payloads classified to
// the right case (see DESIGN.md).
//
// ctx follows the DeployBridge contract. Unknown case names fail with
// ErrUnknownCase. Call Sync after mutating the registry to pick up
// model changes with zero restart.
func (f *Framework) DeployDispatcher(ctx context.Context, hostIP string, cases []string, opts ...Option) (*Dispatcher, error) {
	d, err := f.deploy(ctx, hostIP, cases, opts)
	if err != nil {
		return nil, err
	}
	return &Dispatcher{d: d}, nil
}

// deploy is the one way a deployment is made, a bridge or a dispatcher:
// a provisioning dispatcher hosting cases on a bridge host it owns.
func (f *Framework) deploy(ctx context.Context, hostIP string, cases []string, opts []Option) (*provision.Dispatcher, error) {
	cfg := compileOptions(opts)
	return provision.Deploy(ctx, f.reg.r, f.rt.rt, hostIP, cases,
		provision.WithEngineOptions(cfg.engOpts...), provision.WithSink(cfg.sink()))
}

// Bridge is a deployed interoperability connector executing one merged
// automaton: a dispatcher hosting that one case.
type Bridge struct {
	d    *provision.Dispatcher
	name string
}

// Case returns the name of the merged automaton the bridge executes.
func (b *Bridge) Case() string { return b.name }

// State returns the bridge's lifecycle state.
func (b *Bridge) State() State { return stateOf(b.d.State()) }

// Metrics returns a consistent snapshot of the bridge's session
// counters, staged latency distributions and the classification
// counters of its entry listeners.
func (b *Bridge) Metrics() Metrics { return metricsOf(b.d.Snapshot()) }

// Sessions lists the bridge's currently live sessions, oldest first.
func (b *Bridge) Sessions() []SessionInfo { return sessionsOf(b.d.LiveSessions()) }

// Shutdown drains the bridge gracefully: no new sessions are admitted
// (late initiator requests surface as ErrDraining drops), live
// sessions run to completion, and ctx bounds the drain — on expiry the
// remaining sessions are torn down and the returned error wraps
// ctx.Err(). The bridge host is released either way.
func (b *Bridge) Shutdown(ctx context.Context) error { return b.d.Shutdown(ctx) }

// Close undeploys the bridge immediately, tearing down in-flight
// sessions and releasing the bridge host.
func (b *Bridge) Close() error { return b.d.Close() }

// Dispatcher is a multi-case bridge deployment: one daemon hosting
// every selected case at once behind shared entry listeners, with
// inbound payloads classified to the right case.
type Dispatcher struct {
	d *provision.Dispatcher
}

// Cases lists the currently deployed case names, sorted.
func (d *Dispatcher) Cases() []string { return d.d.Cases() }

// Sync reconciles the hosted cases with the registry's current state:
// new cases are deployed, changed ones redeployed, unloaded ones
// undeployed. A Sync with nothing changed is a cheap no-op. Syncing a
// draining or closed dispatcher fails with ErrDraining / ErrClosed.
// Syncs run one at a time, and a Sync delivers its deploy events before
// it returns, so an observer must not call Sync from OnDeploy.
func (d *Dispatcher) Sync() error { return d.d.Sync() }

// State returns the dispatcher's lifecycle state.
func (d *Dispatcher) State() State { return stateOf(d.d.State()) }

// Metrics returns a consistent snapshot of the dispatcher's counters:
// per-case session metrics and staged latency distributions, their
// aggregates, and the classification counters and latencies of the
// shared entry listeners.
func (d *Dispatcher) Metrics() Metrics { return metricsOf(d.d.Snapshot()) }

// Sessions lists the dispatcher's currently live sessions across every
// hosted case, grouped by case name (sorted), oldest first within each.
func (d *Dispatcher) Sessions() []SessionInfo { return sessionsOf(d.d.LiveSessions()) }

// Shutdown drains the dispatcher gracefully: every hosted case stops
// admitting new sessions immediately (late initiator requests surface
// as ErrDraining drops), live sessions keep receiving their
// mid-program entry payloads and run to completion, and once every
// case has drained — or ctx has expired — the dispatcher closes fully,
// releasing its listeners and host. The returned error wraps ctx.Err()
// if any case was torn down with sessions still live.
func (d *Dispatcher) Shutdown(ctx context.Context) error { return d.d.Shutdown(ctx) }

// Close undeploys everything immediately: listeners first (stopping
// inflow), then every case, tearing down their sessions and releasing
// the host.
func (d *Dispatcher) Close() error { return d.d.Close() }
