package netapi

import (
	"sync"
	"sync/atomic"
)

// FlowGate is the backpressure signal between a bounded ingest queue
// and the transport read loops feeding it. It is a counting gate:
// every queue that crosses its high watermark takes one Pause hold,
// and releases it with Resume once it drains back to its low
// watermark. The gate is blocked while any hold is outstanding —
// several pressured queues keep the transport paused until the last
// one recovers.
//
// Transports consume the gate two ways:
//
//   - realnet read loops call Blocked before each read and Wait while
//     the gate is blocked, releasing their leased read buffer first (a
//     paused loop must not pin pool memory);
//   - simnet checks Blocked at delivery time and defers the delivery,
//     then re-schedules it when a Notify callback reports the gate
//     reopened — modeling the pause deterministically on the virtual
//     clock.
//
// Every Pause must eventually be matched by a Resume (queue teardown
// included), or paused read loops never wake; Resume without a
// matching Pause panics.
type FlowGate struct {
	// blocked mirrors holds > 0 for the lock-free fast path read on
	// every packet delivery.
	blocked atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond
	holds  int
	pauses uint64
	subs   []func()
}

// NewFlowGate returns an open gate.
func NewFlowGate() *FlowGate {
	g := &FlowGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Pause takes one hold on the gate. The first hold blocks the gate.
func (g *FlowGate) Pause() {
	g.mu.Lock()
	g.holds++
	if g.holds == 1 {
		g.pauses++
		g.blocked.Store(true)
	}
	g.mu.Unlock()
}

// Resume releases one hold. Releasing the last hold reopens the gate:
// waiting read loops wake and every Notify subscriber is invoked (with
// no gate lock held). Resume without a matching Pause panics.
func (g *FlowGate) Resume() {
	g.mu.Lock()
	if g.holds <= 0 {
		g.mu.Unlock()
		panic("netapi: FlowGate.Resume without a matching Pause")
	}
	g.holds--
	var subs []func()
	if g.holds == 0 {
		g.blocked.Store(false)
		g.cond.Broadcast()
		subs = append(subs, g.subs...)
	}
	g.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
}

// Blocked reports whether any hold is outstanding. Lock-free.
//
//starlink:hotpath
func (g *FlowGate) Blocked() bool { return g.blocked.Load() }

// Wait blocks until the gate is open. It returns immediately when the
// gate is already open.
func (g *FlowGate) Wait() {
	g.mu.Lock()
	for g.holds > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Notify subscribes fn to blocked→open transitions. fn runs on the
// resuming goroutine with no gate lock held; it must not call Resume.
func (g *FlowGate) Notify(fn func()) {
	g.mu.Lock()
	g.subs = append(g.subs, fn)
	g.mu.Unlock()
}

// Pauses returns the cumulative number of blocked→open cycles started
// (the number of times the first hold was taken). Diagnostics only.
func (g *FlowGate) Pauses() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pauses
}
