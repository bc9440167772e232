package engine

import (
	"time"

	"starlink/internal/netapi"
)

// LentColors reports, per row of the plan's requester color table,
// whether sockets of that color are lent (the color declares a txid).
func (e *Engine) LentColors() (lent []bool) {
	for _, rs := range e.plan.reqs {
		lent = append(lent, rs.txid != nil)
	}
	return lent
}

// FlowGate is the gate the engine's ingest queues pause at their high
// watermark — under a dispatcher, the one its entry listeners park on.
func (e *Engine) FlowGate() *netapi.FlowGate { return e.gate }

// PostForPreviousLife queues a requester payload for worker 0's only live
// session as if it had been read for the session that struct was one
// life ago; false when the struct has had no earlier life. Call it only
// while the engine is quiescent (simnet, between runs).
func (e *Engine) PostForPreviousLife(data []byte, lease *netapi.Buffer) bool {
	var s *session
	e.table.each(func(live *session) { s = live })
	if s == nil || s.life.Load() == 0 {
		return false
	}
	e.post(s, s.life.Load()-1, ingestJob{kind: jobData, codec: e.plan.steps[len(e.plan.steps)-1].codec, data: data, lease: lease, arrived: time.Now()})
	return true
}
