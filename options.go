package starlink

import (
	"time"

	"starlink/internal/engine"
	"starlink/internal/lanes"
	"starlink/internal/provision"
)

// Option configures a deployment. One option set serves both
// DeployBridge and DeployDispatcher: every option means the same thing
// to either, applied per case under a dispatcher.
type Option struct {
	apply func(*deployConfig)
}

// deployConfig is the compiled form of an option list.
type deployConfig struct {
	engOpts   []engine.Option
	observers []Observer

	// lanePolicy accumulates WithLanePolicy and WithWatermarks so the
	// two options compose into one engine-level policy; laneSet records
	// that at least one of them appeared.
	lanePolicy lanes.Policy
	laneSet    bool
}

// compileOptions applies opts in order.
func compileOptions(opts []Option) *deployConfig {
	cfg := &deployConfig{}
	for _, o := range opts {
		if o.apply != nil {
			o.apply(cfg)
		}
	}
	return cfg
}

// sink returns the deployment's observer chain as the sink of its
// internal layers, nil when no observer was registered.
func (c *deployConfig) sink() provision.Sink {
	if len(c.observers) == 0 {
		return nil
	}
	return &observerChain{obs: c.observers}
}

// engineOptions renders the per-engine option list.
func (c *deployConfig) engineOptions() []engine.Option {
	out := append([]engine.Option(nil), c.engOpts...)
	if c.laneSet {
		out = append(out, engine.WithLanePolicy(c.lanePolicy))
	}
	return out
}

// WithVars injects deployment environment variables referenced by
// translation constants (e.g. ${bridge.host}).
func WithVars(vars map[string]string) Option {
	return Option{apply: func(c *deployConfig) {
		c.engOpts = append(c.engOpts, engine.WithVars(vars))
	}}
}

// WithMaxSessions bounds the number of concurrently live sessions (per
// case, for a dispatcher). Initiator requests beyond the bound are
// rejected instead of queued — observable as drops tagged
// ErrOverloaded — so a flood degrades into dropped requests rather
// than unbounded memory growth. Values < 1 keep the default (4096).
func WithMaxSessions(n int) Option {
	return Option{apply: func(c *deployConfig) {
		c.engOpts = append(c.engOpts, engine.WithMaxSessions(n))
	}}
}

// WithReceiveTimeout bounds how long a session waits at a receive
// state with no convergence window before failing.
func WithReceiveTimeout(d time.Duration) Option {
	return Option{apply: func(c *deployConfig) {
		c.engOpts = append(c.engOpts, engine.WithReceiveTimeout(d))
	}}
}

// WithIngestWorkers sets the size of the worker pool that parses and
// routes inbound entry payloads (per case, for a dispatcher).
func WithIngestWorkers(n int) Option {
	return Option{apply: func(c *deployConfig) {
		c.engOpts = append(c.engOpts, engine.WithIngestWorkers(n))
	}}
}

// WithObserver registers an observer on the deployment. Observers
// compose: every registered observer receives every event, in
// registration order. Use Hooks to implement only the callbacks you
// need.
func WithObserver(o Observer) Option {
	return Option{apply: func(c *deployConfig) {
		if o != nil {
			c.observers = append(c.observers, o)
		}
	}}
}

// WithFlightRecorder sizes each session's flight-recorder ring in
// events (rounded up to a power of two, clamped to [4, 4096]). The
// default is 64 events per session; 0 disables recording entirely,
// leaving roughly one atomic load per stage boundary. Negative values
// keep the default. Latency histograms are unaffected — they are
// always on.
func WithFlightRecorder(events int) Option {
	return Option{apply: func(c *deployConfig) {
		c.engOpts = append(c.engOpts, engine.WithTraceRing(events))
	}}
}

// ShedPolicy selects what a pressured ingest queue does with telemetry
// payloads once the high watermark trips (see WithLanePolicy).
type ShedPolicy int

const (
	// ShedOldest evicts the oldest queued telemetry payload to admit a
	// newer one — fresh chatter beats stale chatter. The default.
	ShedOldest ShedPolicy = iota
	// ShedRejectNew refuses incoming telemetry while pressured, keeping
	// what is already queued.
	ShedRejectNew
	// ShedDeferOnly never sheds: all admission control is left to the
	// transport backpressure gate (paused read loops) and to ring
	// capacity itself.
	ShedDeferOnly
)

// String returns the flag spelling ("shed-oldest", "reject-new",
// "defer").
func (p ShedPolicy) String() string { return p.mode().String() }

func (p ShedPolicy) mode() lanes.ShedMode {
	switch p {
	case ShedRejectNew:
		return lanes.RejectNew
	case ShedDeferOnly:
		return lanes.DeferOnly
	default:
		return lanes.ShedOldest
	}
}

// ParseShedPolicy parses the flag spelling accepted by String.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	m, err := lanes.ParseShedMode(s)
	if err != nil {
		return ShedOldest, err
	}
	switch m {
	case lanes.RejectNew:
		return ShedRejectNew, nil
	case lanes.DeferOnly:
		return ShedDeferOnly, nil
	default:
		return ShedOldest, nil
	}
}

// WithLanePolicy bounds the prioritized ingest lanes that sit between
// the transport read loops and each case's session router. Inbound
// payloads classify into three lanes — control (session entry),
// data (mid-session payloads of live sessions), telemetry (multicast
// chatter) — each a ring of capacity payloads; under pressure the
// telemetry lane degrades first per shed, and the control lane last.
// Shed payloads surface as drops tagged ErrOverloaded. capacity < 1
// keeps the default (1024 per lane). Composes with WithWatermarks.
func WithLanePolicy(capacity int, shed ShedPolicy) Option {
	return Option{apply: func(c *deployConfig) {
		c.laneSet = true
		if capacity >= 1 {
			c.lanePolicy.Capacity = capacity
		}
		c.lanePolicy.Mode = shed.mode()
	}}
}

// WithWatermarks sets the total-depth hysteresis thresholds of the
// ingest lanes (per case, for a dispatcher): at high queued payloads
// the transport read loops pause — releasing their buffers rather than
// queueing — and telemetry shedding begins; draining back to low
// resumes them. Deploy fails if high ≤ low or either is out of range
// for the lane capacity. Values ≤ 0 keep the defaults (75% and 37.5%
// of total capacity). Composes with WithLanePolicy.
func WithWatermarks(high, low int) Option {
	return Option{apply: func(c *deployConfig) {
		c.laneSet = true
		if high > 0 {
			c.lanePolicy.High = high
		}
		if low > 0 {
			c.lanePolicy.Low = low
		}
	}}
}
