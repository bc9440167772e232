// Fault plane and delivery-event trace: the DST rig's view of the
// simulator. A netapi.FaultPlan installed into a Net injects loss,
// extra delay, reordering, duplication, corrupted and truncated
// datagrams and directional partitions at the delivery layer; an enabled event trace records every delivery
// decision as one text line plus a rolling hash, so two runs can be
// compared byte for byte.
//
// Determinism: fault decisions draw from a dedicated RNG seeded from
// the net's seed, never from the shared latency-jitter RNG. Installing
// a plan therefore does not perturb the jitter sequence — a run with
// faults disabled (or a plan whose rules never match) is byte-identical
// to a run on a simulator that has no fault plane at all, and traffic
// pairs a plan does not match keep their exact no-plan timings.
package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"starlink/internal/netapi"
)

// WithFaults installs a fault plan at construction time (the plan's
// window offsets are relative to the virtual epoch). Equivalent to
// calling InstallFaults immediately after New.
func WithFaults(plan *netapi.FaultPlan) Option {
	return func(n *Net) { n.installFaultsLocked(plan) }
}

// WithEventTrace enables the delivery-event trace: every delivery-layer
// decision (deliver, drop, dup, defer, stall, stream connect/close)
// appends one line and folds into a rolling hash. Costs memory
// proportional to traffic; off by default.
func WithEventTrace() Option {
	return func(n *Net) { n.trace = &eventTrace{epoch: n.now} }
}

// WithLeasedDelivery makes UDP deliveries carry pooled leased buffers
// (netapi.Buffer + lease flag) exactly like the real runtime's read
// loops, instead of heap-owned slices. This puts the engine's
// lease-ownership paths — including duplicate deliveries each owning a
// distinct buffer — under the simulator's deterministic schedule, so
// the DST lease-balance invariant can catch leaks.
func WithLeasedDelivery() Option {
	return func(n *Net) { n.leased = true }
}

var _ netapi.FaultInjector = (*Net)(nil)

// InstallFaults installs (or, with nil, removes) the fault plan. The
// plan's Start/End windows are measured from the install instant. The
// fault RNG is re-seeded from the net's seed on every install, so
// install-then-run is as deterministic as construction-time options.
func (n *Net) InstallFaults(plan *netapi.FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.installFaultsLocked(plan)
}

func (n *Net) installFaultsLocked(plan *netapi.FaultPlan) {
	if plan.Empty() {
		n.faults = nil
		return
	}
	// Seed the fault RNG from the net seed via splitmix64 so the two
	// streams (jitter vs faults) are decorrelated even for small seeds.
	n.faults = &faultState{
		plan:  plan,
		epoch: n.now,
		rng:   rand.New(rand.NewSource(int64(n.tieFor(0x5DF1E9)))),
	}
}

// faultState is an installed plan plus its epoch and dedicated RNG.
// Guarded by Net.mu like the rest of the simulator state.
type faultState struct {
	plan  *netapi.FaultPlan
	epoch time.Time
	rng   *rand.Rand
}

// faultVerdict is the per-delivery outcome of consulting the plan.
type faultVerdict struct {
	drop     bool
	dropKind string // "loss" or "partition"
	// extra is added to the base one-way latency draw.
	extra time.Duration
	// dup schedules a second copy dupDelay after the first.
	dup      bool
	dupDelay time.Duration
	// healHold stalls a stream delivery until a partition's End.
	healHold time.Duration
	// refuse fails a stream dial outright (unhealing partition).
	refuse bool
	// flip, when nonzero, is XORed into the byte at flipAt; cut, when
	// not -1, is the length the datagram is cut to.
	flip        byte
	flipAt, cut int
}

// damage applies v's truncation and corruption to data and returns the
// result with its trace kind ("" when v damages nothing). A flipped
// byte is flipped in a copy: the sender's bytes stay as they were.
func (v *faultVerdict) damage(data []byte) ([]byte, string) {
	kind := ""
	if v.cut >= 0 {
		data, kind = data[:v.cut:v.cut], "truncate"
	}
	if v.flip != 0 && v.flipAt < len(data) {
		data = append([]byte(nil), data...)
		data[v.flipAt] ^= v.flip
		kind = strings.TrimSpace("corrupt " + kind)
	}
	return data, kind
}

// udp evaluates the plan for one datagram of size bytes from→to at
// virtual instant now. Caller holds Net.mu. Every matching rule applies
// in plan order; a drop stops evaluation (nothing is left to deliver).
// A probability of 0 draws nothing from the RNG.
func (f *faultState) udp(now time.Time, from, to netapi.Addr, defaultReorder time.Duration, size int) faultVerdict {
	v := faultVerdict{cut: -1}
	elapsed := now.Sub(f.epoch)
	for i := range f.plan.Rules {
		r := &f.plan.Rules[i]
		if !r.Matches("udp", from, to, elapsed) {
			continue
		}
		if r.Partition {
			return faultVerdict{drop: true, dropKind: "partition"}
		}
		if r.Loss > 0 && f.rng.Float64() < r.Loss {
			return faultVerdict{drop: true, dropKind: "loss"}
		}
		if r.Delay > 0 || r.DelayJitter > 0 {
			v.extra += r.Delay
			if r.DelayJitter > 0 {
				v.extra += time.Duration(f.rng.Int63n(int64(r.DelayJitter)))
			}
		}
		if r.Duplicate > 0 && f.rng.Float64() < r.Duplicate {
			v.dup = true
			v.dupDelay += r.DuplicateDelay
		}
		if r.Reorder > 0 && f.rng.Float64() < r.Reorder {
			hold := r.ReorderDelay
			if hold == 0 {
				hold = defaultReorder
			}
			v.extra += hold
		}
		if r.Corrupt > 0 && f.rng.Float64() < r.Corrupt && size > 0 {
			v.flipAt, v.flip = f.rng.Intn(size), byte(1+f.rng.Intn(255))
		}
		if r.Truncate > 0 && f.rng.Float64() < r.Truncate && size > 0 {
			v.cut = f.rng.Intn(size)
		}
	}
	return v
}

// stream evaluates the plan for one stream delivery (chunk, dial or
// close propagation) from→to at now. Caller holds Net.mu. Streams keep
// TCP semantics: loss, duplication and reordering never apply; a
// partition stalls traffic until its End (heals), or kills it when the
// rule has no End.
func (f *faultState) stream(now time.Time, from, to netapi.Addr) faultVerdict {
	var v faultVerdict
	elapsed := now.Sub(f.epoch)
	for i := range f.plan.Rules {
		r := &f.plan.Rules[i]
		if !r.Matches("stream", from, to, elapsed) {
			continue
		}
		if r.Partition {
			if r.End == 0 {
				return faultVerdict{drop: true, dropKind: "partition", refuse: true}
			}
			if hold := r.End - elapsed; hold > v.healHold {
				v.healHold = hold
			}
		}
		if r.Delay > 0 || r.DelayJitter > 0 {
			v.extra += r.Delay
			if r.DelayJitter > 0 {
				v.extra += time.Duration(f.rng.Int63n(int64(r.DelayJitter)))
			}
		}
	}
	return v
}

// ---------------------------------------------------------------------
// Delivery-event trace
// ---------------------------------------------------------------------

// eventTrace accumulates one line per delivery-layer decision plus a
// rolling FNV-1a hash of the whole trace. Guarded by Net.mu.
type eventTrace struct {
	epoch time.Time
	hash  uint64
	lines []string
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// record appends one trace line. Caller holds Net.mu; event execution
// is serialized by the event loop plus the WorkAdd/WorkDone contract, so
// line order is deterministic for a given seed.
func (t *eventTrace) record(now time.Time, proto, kind string, from, to netapi.Addr, size int) {
	line := fmt.Sprintf("+%s %s %s>%s %d %s", now.Sub(t.epoch), proto, from, to, size, kind)
	h := t.hash
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < len(line); i++ {
		h ^= uint64(line[i])
		h *= fnvPrime
	}
	h ^= '\n'
	h *= fnvPrime
	t.hash = h
	t.lines = append(t.lines, line)
}

// traceLocked records a delivery-layer event when tracing is enabled.
// Caller holds Net.mu.
func (n *Net) traceLocked(proto, kind string, from, to netapi.Addr, size int) {
	if n.trace != nil {
		n.trace.record(n.now, proto, kind, from, to, size)
	}
}

// TraceHash returns the rolling FNV-1a hash of the event trace so far
// (zero when tracing is disabled or no event has been recorded). Read
// it only while the simulation is not being driven.
func (n *Net) TraceHash() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.trace == nil {
		return 0
	}
	return n.trace.hash
}

// TraceLines returns a copy of the recorded event-trace lines. Read it
// only while the simulation is not being driven.
func (n *Net) TraceLines() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.trace == nil {
		return nil
	}
	return append([]string(nil), n.trace.lines...)
}

// defaultReorderLocked is the hold applied by a reorder fault whose
// rule does not set ReorderDelay: long enough that traffic sent just
// after the held packet can overtake it even with maximal jitter.
// Caller holds Net.mu.
func (n *Net) defaultReorderLocked() time.Duration {
	return 2 * (n.latBase + n.latJitter)
}
