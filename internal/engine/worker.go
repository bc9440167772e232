package engine

import (
	"sync/atomic"
	"time"

	"starlink/internal/lanes"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
)

const (
	// maxFreeSessions bounds a worker's free list; what a burst leaves
	// beyond it goes to the collector.
	maxFreeSessions = 64
	// maxIdleRequesters bounds the open sockets a worker keeps per lent
	// color with no holder: each is a descriptor and a parked goroutine,
	// so the excess of a burst is closed on return.
	maxIdleRequesters = 4
)

// worker is one ingest worker: its lane queue, and what only the
// goroutine draining it touches (and Close, once that has stopped).
type worker struct {
	q *lanes.Queue[ingestJob]
	// msgs is the worker's share of the message balance: messages drawn
	// (draw) minus messages released (release) by this worker's jobs and
	// sessions, and by Close and shed paths on its behalf. A message may
	// be drawn on one worker and released on another; the sum over the
	// workers is what is outstanding (Snapshot.Messages).
	msgs atomic.Int64
	// free holds finished sessions, the next ones this worker admits.
	free []*session
	// idle holds, per requester slot of a lent color, the open sockets
	// no session holds; last returned, first lent. spare holds, per slot
	// of a stream color, closed channels kept for their structs and
	// handlers: the next session redials one, and the runtime's dial
	// pool hands it the connection the last one parked.
	idle  [][]*requester
	spare [][]*requester
	// wire is the buffer every send step of this worker's sessions
	// composes into: Send and Reply write or copy it before they return.
	wire []byte
}

// draw takes a message from the pool for a job or session of w: every
// message the engine holds is drawn here and ends in release.
func (w *worker) draw(protocol, name string) *message.Message {
	w.msgs.Add(1)
	return message.NewPooled(protocol, name)
}

// release returns a message the engine drew to the pool.
func (w *worker) release(m *message.Message) {
	m.Release()
	w.msgs.Add(-1)
}

// done ends a job on w, whatever path it took: the lease and the message
// still in it — those no session adopted — are released.
func (w *worker) done(job *ingestJob) {
	job.releaseLease()
	if job.msg != nil {
		w.release(job.adopt())
	}
}

// requester is a client-role channel and the session it serves now. A
// color that declares a txid has its sockets lent: opened on first need,
// held by one session at a time, closed by Engine.Close — what keeps a
// reply to the previous holder from the next is the txid, not the port.
// Any other channel serves the one session that opened it.
type requester struct {
	*netengine.Requester
	// epoch numbers a lent socket's lends (16 bits, never 0; always 0 on
	// a channel that is not lent): under an integer txid the holder sends
	// it in the field and takes only replies that echo it. Worker-owned.
	epoch uint16
	// cur is the holder the read loop posts payloads to; nil once
	// released, when whatever arrives answers a session that has gone.
	cur atomic.Pointer[session]
}

// requester returns s's channel for a send step, acquiring it on first
// use: for a lent color the socket returned last — else a new one —
// under its next epoch; for any other, or after a setHost redirect, a
// channel of s's own: a spare stream channel redialled, else a new one.
func (s *session) requester(st *planStep) (*requester, error) {
	r := s.reqs[st.req]
	if r != nil {
		return r, nil
	}
	e, w := s.e, s.w
	lent := e.plan.reqs[st.req].txid != nil && s.override.IsZero()
	if idle := w.idle[st.req]; lent && len(idle) > 0 {
		r, w.idle[st.req] = idle[len(idle)-1], idle[:len(idle)-1]
		e.idleRequesters.Add(-1)
	} else if spare := w.spare[st.req]; len(spare) > 0 {
		r = spare[len(spare)-1]
		if err := r.Redial(s.override); err != nil {
			return nil, err
		}
		w.spare[st.req] = spare[:len(spare)-1]
		s.override = netapi.Addr{}
	} else {
		r = &requester{}
		slot, codec := uint8(st.req), st.codec
		var err error
		r.Requester, err = e.net.NewRequester(st.Color, s.override, codec.Framer, func(data []byte, src netengine.Source, lease *netapi.Buffer) {
			cur := r.cur.Load()
			if cur == nil {
				e.stale.Add(1)
				lease.Release()
				return
			}
			e.post(cur, cur.life.Load(), ingestJob{kind: jobData, req: slot, codec: codec, data: data, src: src, lease: lease, arrived: time.Now()})
		})
		if err != nil {
			return nil, err
		}
		s.override = netapi.Addr{}
		if e.egress != nil {
			e.egress.Add(r.Requester)
		}
		if lent {
			e.requesterOpens.Add(1)
		}
	}
	if lent {
		e.requesterLends.Add(1)
		if r.epoch++; r.epoch == 0 {
			r.epoch = 1
		}
	}
	r.cur.Store(s)
	s.reqs[st.req] = r
	return r, nil
}

// release ends s's hold on the channel in slot: a lent socket goes back
// on the idle list, any other channel — and a lent one beyond the idle
// bound — is closed, and a stream one kept spare within the same bound.
func (s *session) release(slot int) {
	r, w := s.reqs[slot], s.w
	s.reqs[slot] = nil
	r.cur.Store(nil)
	if r.epoch != 0 && len(w.idle[slot]) < maxIdleRequesters {
		w.idle[slot] = append(w.idle[slot], r)
		s.e.idleRequesters.Add(1)
		return
	}
	s.e.closeRequester(r)
	if r.Stream() && len(w.spare[slot]) < maxIdleRequesters {
		w.spare[slot] = append(w.spare[slot], r)
	}
}

func (e *Engine) closeRequester(r *requester) {
	if e.egress != nil {
		e.egress.Remove(r.Requester)
	}
	_ = r.Close()
}

// answers reports whether a payload parsed off requester slot is a
// reply to s: read off s's own channel — not one some other session
// holds now — and, on a lent socket, echoing in txid this lend's epoch
// or, for a String txid, what s's request carried there.
func (s *session) answers(slot uint8, src netengine.Source, msg *message.Message) bool {
	r, rs := s.reqs[slot], &s.e.plan.reqs[slot]
	if r == nil || !r.Heard(src) {
		return false
	}
	if r.epoch == 0 {
		return true
	}
	f, ok := msg.PathParts(rs.txid)
	if !ok {
		return false
	}
	if !rs.stamp {
		sent := s.history[rs.sent]
		asked, ok := sent[len(sent)-1].PathParts(rs.txid)
		return ok && asked.Value.Equal(f.Value)
	}
	id, ok := f.Value.AsInt()
	return ok && id == int64(r.epoch)
}

// recycle ends s's life and parks the struct for w's next admission.
func (w *worker) recycle(s *session) {
	s.life.Add(1)
	s.origin = netengine.Source{}
	clear(s.entries)
	if len(w.free) < maxFreeSessions {
		w.free = append(w.free, s)
	}
}
