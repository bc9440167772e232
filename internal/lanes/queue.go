package lanes

import (
	"sync"

	"starlink/internal/netapi"
)

// ringMin is the slot count a ring is first allocated with.
const ringMin = 16

// ring is a FIFO that allocates on first use and doubles, up to its
// queue's Policy.Capacity, only when a push finds it full: a lane that
// never backs up holds ringMin slots, not Capacity empty, pointerful
// ones. Slots are cleared on pop so the queue never pins a dequeued
// item's buffers.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v; the caller has checked n < limit.
func (r *ring[T]) push(v T, limit int) {
	if r.n == len(r.buf) {
		buf := make([]T, min(max(2*len(r.buf), ringMin), limit))
		for i := range r.n { // oldest first: the new ring starts unwrapped
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Queue is one bounded, lane-prioritized ingest queue: three rings
// (one per lane), strict-priority dequeue, and the watermark state
// machine driving the flow gate. All methods are safe for concurrent
// use; per-lane FIFO order is preserved.
type Queue[T any] struct {
	policy Policy
	gate   *netapi.FlowGate

	mu        sync.Mutex
	cond      sync.Cond
	rings     [NumLanes]ring[T]
	pressured bool
	closed    bool

	admitted  [NumLanes]uint64
	deferred  [NumLanes]uint64
	shed      [NumLanes]uint64
	processed [NumLanes]uint64
	evicted   [NumLanes]uint64
	drained   [NumLanes]uint64
	maxDepth  int
}

// NewQueue builds a queue under policy (which must Validate), pausing
// gate while pressured. A nil gate disables backpressure propagation
// but keeps the bounds and shedding.
func NewQueue[T any](policy Policy, gate *netapi.FlowGate) *Queue[T] {
	q := &Queue[T]{policy: policy, gate: gate}
	q.cond.L = &q.mu
	return q
}

func (q *Queue[T]) depthLocked() int {
	return q.rings[Control].n + q.rings[Data].n + q.rings[Telemetry].n
}

// Enqueue offers an item to its lane and reports the outcome:
//
//   - Admitted: queued, nothing displaced;
//   - Evicted: queued, and the returned victim (oldest same-lane item)
//     must be released and accounted by the caller;
//   - Rejected: refused — the caller keeps the item.
//
// While the queue is pressured, telemetry arrivals are shed (ShedOldest
// replaces the oldest queued telemetry; RejectNew refuses the arrival;
// DeferOnly admits until the ring fills). Control and data keep
// admitting until their own ring fills; a full ring evicts its oldest
// under ShedOldest — except control, which always keeps its oldest,
// refusing the arrival instead.
func (q *Queue[T]) Enqueue(lane Lane, item T) (Verdict, T) {
	var zero T
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Rejected, zero
	}
	r := &q.rings[lane]
	verdict := Admitted
	victim := zero
	switch {
	case q.pressured && lane == Telemetry && q.policy.Mode != DeferOnly:
		// Pressure shedding: telemetry degrades first, before its ring
		// is anywhere near full, so queue space stays available for
		// control and data.
		if q.policy.Mode == ShedOldest && r.n > 0 {
			victim = r.pop()
			r.push(item, q.policy.Capacity)
			verdict = Evicted
		} else {
			// RejectNew, or nothing older to shed: refuse the arrival.
			verdict = Rejected
		}
	case r.n >= q.policy.Capacity:
		if q.policy.Mode == ShedOldest && lane != Control {
			victim = r.pop()
			r.push(item, q.policy.Capacity)
			verdict = Evicted
		} else {
			verdict = Rejected
		}
	default:
		r.push(item, q.policy.Capacity)
	}
	if verdict != Rejected {
		q.admitted[lane]++
		if q.pressured {
			q.deferred[lane]++
		}
	}
	if verdict != Admitted {
		q.shed[lane]++
	}
	if verdict == Evicted {
		q.evicted[lane]++
	}
	depth := q.depthLocked()
	if depth > q.maxDepth {
		q.maxDepth = depth
	}
	if !q.pressured && depth >= q.policy.High {
		// Gate transitions happen under q.mu so a concurrent drain
		// cannot Resume a hold before it is taken.
		q.pressured = true
		if q.gate != nil {
			q.gate.Pause()
		}
	}
	q.mu.Unlock()
	if verdict != Rejected {
		q.cond.Signal()
	}
	return verdict, victim
}

// TryDequeue pops the highest-priority queued item without blocking.
// ok is false when the queue is empty or closed.
func (q *Queue[T]) TryDequeue() (item T, lane Lane, ok bool) {
	q.mu.Lock()
	item, lane, ok = q.dequeueLocked()
	q.mu.Unlock()
	return item, lane, ok
}

// Dequeue pops the highest-priority queued item, blocking while the
// queue is empty. ok is false once the queue is closed (remaining
// items are surfaced through Close's drain callback, not here).
func (q *Queue[T]) Dequeue() (item T, lane Lane, ok bool) {
	q.mu.Lock()
	for {
		item, lane, ok = q.dequeueLocked()
		if ok || q.closed {
			q.mu.Unlock()
			return item, lane, ok
		}
		q.cond.Wait()
	}
}

func (q *Queue[T]) dequeueLocked() (item T, lane Lane, ok bool) {
	if q.closed {
		return item, lane, false
	}
	for l := Control; l < NumLanes; l++ {
		if q.rings[l].n > 0 {
			item = q.rings[l].pop()
			q.processed[l]++
			if q.pressured && q.depthLocked() <= q.policy.Low {
				// Hysteresis: the transport resumes only after the
				// backlog drained well below the pause point.
				q.pressured = false
				if q.gate != nil {
					q.gate.Resume()
				}
			}
			return item, l, true
		}
	}
	return item, lane, false
}

// Close marks the queue closed — Dequeue returns false, Enqueue
// rejects — and hands every still-queued item to drain (may be nil),
// highest priority first, under the queue lock. A pressured queue
// releases its gate hold so paused transports wake for teardown.
func (q *Queue[T]) Close(drain func(Lane, T)) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	if q.pressured {
		q.pressured = false
		if q.gate != nil {
			q.gate.Resume()
		}
	}
	for l := Control; l < NumLanes; l++ {
		for q.rings[l].n > 0 {
			item := q.rings[l].pop()
			q.drained[l]++
			if drain != nil {
				drain(l, item)
			}
		}
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Counters snapshots the per-lane accounting.
func (q *Queue[T]) Counters() [NumLanes]Counters {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out [NumLanes]Counters
	for l := range out {
		out[l] = Counters{
			Admitted:  q.admitted[l],
			Deferred:  q.deferred[l],
			Shed:      q.shed[l],
			Processed: q.processed[l],
			Evicted:   q.evicted[l],
			Drained:   q.drained[l],
			Depth:     q.rings[l].n,
			Capacity:  q.policy.Capacity,
		}
	}
	return out
}

// Depth returns the total queued item count.
func (q *Queue[T]) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// MaxDepth returns the high-water total depth ever observed — the
// bounded-memory witness for the overload benchmarks.
func (q *Queue[T]) MaxDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.maxDepth
}

// Pressured reports whether the queue is between its watermarks' high
// crossing and low recovery.
func (q *Queue[T]) Pressured() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pressured
}
