package starlink

import (
	"time"

	"starlink/internal/engine"
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
