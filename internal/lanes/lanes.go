// Package lanes implements the lane-scheduled bounded-ingest queue
// that sits between the transport read loops and the engine's ingest
// workers: every accepted payload is classified into a priority lane —
// control (session-entry/classify traffic) over data (mid-session
// messages for live sessions) over telemetry (multicast chatter,
// advert/demo traffic) — and queued into a per-lane bounded ring.
// Dequeue is strict-priority: control drains first, telemetry last.
//
// Two watermarks on the queue's total depth drive a hysteresis state
// machine (Normal ⇄ Pressured). Crossing the high watermark takes a
// hold on the queue's netapi.FlowGate — pausing the transport read
// loops that feed it — and starts shedding telemetry oldest-first;
// draining back to the low watermark releases the hold. Shedding is
// never silent: Enqueue reports exactly which item was refused or
// evicted so the caller can release its buffer lease and account the
// drop (serrors.ErrOverloaded through the observer path).
//
// Enqueue and TryDequeue are the per-payload accept path and perform
// no allocation (guarded by AllocsPerRun tests); Dequeue adds only
// condition-variable parking when the queue is empty.
package lanes

import "fmt"

// Lane is a payload's priority class. Lower values drain first.
type Lane uint8

const (
	// Control carries session-entry and classification traffic: the
	// initiator requests that open sessions. Shed last.
	Control Lane = iota
	// Data carries mid-session messages for live sessions.
	Data
	// Telemetry carries multicast chatter and advert/demo traffic no
	// session asked for. Shed first.
	Telemetry

	// NumLanes is the number of priority lanes.
	NumLanes = 3
)

// String names the lane for metrics labels and log lines.
func (l Lane) String() string {
	switch l {
	case Control:
		return "control"
	case Data:
		return "data"
	case Telemetry:
		return "telemetry"
	default:
		return "unknown"
	}
}

// Policy bounds and parameterizes one queue.
type Policy struct {
	// Capacity is the per-lane ring capacity: the queue holds at most
	// NumLanes*Capacity items.
	Capacity int
	// High and Low are the pressure watermarks on the queue's total
	// depth: crossing High pauses the feeding transport and starts
	// shedding telemetry; draining to Low resumes it. Validate requires
	// 0 < Low < High ≤ NumLanes*Capacity.
	High int
	Low  int
}

// DefaultPolicy mirrors the pre-lane ingest bound (1024 queued
// payloads total) with watermarks at 75% and 37.5% of the total.
func DefaultPolicy() Policy {
	p := Policy{Capacity: 1024 / NumLanes}
	total := NumLanes * p.Capacity
	p.High = total * 3 / 4
	p.Low = p.High / 2
	return p
}

// WithDefaults fills zero fields from DefaultPolicy, deriving the
// watermarks from the (possibly explicit) capacity.
func (p Policy) WithDefaults() Policy {
	if p.Capacity <= 0 {
		p.Capacity = DefaultPolicy().Capacity
	}
	if p.High <= 0 {
		p.High = NumLanes * p.Capacity * 3 / 4
	}
	if p.Low <= 0 {
		p.Low = p.High / 2
	}
	return p
}

// Validate rejects unusable policies: non-positive capacity, inverted
// or out-of-range watermarks.
func (p Policy) Validate() error {
	if p.Capacity < 1 {
		return fmt.Errorf("lanes: capacity %d, want ≥ 1", p.Capacity)
	}
	if p.Low < 1 {
		return fmt.Errorf("lanes: low watermark %d, want ≥ 1", p.Low)
	}
	if p.High <= p.Low {
		return fmt.Errorf("lanes: high watermark %d must exceed low watermark %d", p.High, p.Low)
	}
	if max := NumLanes * p.Capacity; p.High > max {
		return fmt.Errorf("lanes: high watermark %d exceeds total capacity %d (%d lanes × %d)",
			p.High, max, NumLanes, p.Capacity)
	}
	return nil
}

// Scale divides the policy across n parallel queues (the engine runs
// one queue per ingest worker): each gets 1/n of the capacity and
// watermarks, rounded up and never below the floor needed to stay valid,
// so 341 payloads per lane are 342 on two queues and 344 on four.
func (p Policy) Scale(n int) Policy {
	if n <= 1 {
		return p
	}
	s := p
	s.Capacity = ceilDiv(p.Capacity, n)
	s.High = ceilDiv(p.High, n)
	s.Low = ceilDiv(p.Low, n)
	if s.Low < 1 {
		s.Low = 1
	}
	if s.High <= s.Low {
		s.High = s.Low + 1
	}
	if max := NumLanes * s.Capacity; s.High > max {
		s.High = max
	}
	return s
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Verdict is Enqueue's outcome for the arriving item.
type Verdict uint8

const (
	// Admitted: the item was queued; nothing was displaced.
	Admitted Verdict = iota
	// Evicted: the item was queued and the returned victim — the
	// oldest item of the same lane — was evicted to make room. The
	// caller owns the victim: release its lease and account the drop.
	Evicted
	// Rejected: the arriving item was refused (pressure shedding, a
	// full ring, or a closed queue). The caller keeps ownership.
	Rejected
)

// Counters is an accounting snapshot for one lane of one queue.
type Counters struct {
	// Admitted counts items accepted into the ring (including those
	// that displaced a victim).
	Admitted uint64
	// Deferred counts items admitted while the queue was pressured —
	// work that rode out the overload behind the paused transport.
	Deferred uint64
	// Shed counts items refused or evicted (each surfaced to the
	// caller for ErrOverloaded drop accounting).
	Shed uint64
	// Processed counts items handed to a consumer via Dequeue or
	// TryDequeue. Together with Evicted and Drained it closes the
	// conservation identity checked by the DST invariants: once a queue
	// is closed, Admitted == Processed + Evicted + Drained.
	Processed uint64
	// Evicted counts admitted items later displaced by an eviction (the
	// victims — a subset of Shed, which also counts refusals that were
	// never admitted).
	Evicted uint64
	// Drained counts admitted items surfaced through Close's drain
	// callback instead of a consumer.
	Drained uint64
	// Depth and Capacity are the lane ring's instantaneous fill.
	Depth    int
	Capacity int
}

// add merges o into c for cross-queue rollups.
func (c *Counters) add(o Counters) {
	c.Admitted += o.Admitted
	c.Deferred += o.Deferred
	c.Shed += o.Shed
	c.Processed += o.Processed
	c.Evicted += o.Evicted
	c.Drained += o.Drained
	c.Depth += o.Depth
	c.Capacity += o.Capacity
}

// Sum rolls per-queue lane counters up into one per-lane set.
func Sum(snaps ...[NumLanes]Counters) [NumLanes]Counters {
	var out [NumLanes]Counters
	for _, s := range snaps {
		for l := range out {
			out[l].add(s[l])
		}
	}
	return out
}
