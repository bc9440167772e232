package engine

import (
	"fmt"
	"time"

	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netengine"
	"starlink/internal/serrors"
)

// plan is the merged automaton compiled for execution: what a session
// would otherwise look up by name each time it runs a step is resolved
// here, once, to a pointer or a slot, and a session is arrays those
// slots index. Read-only after New.
type plan struct {
	steps []planStep
	// reqs is the requester color table, one row per client-role protocol.
	reqs []reqSlot
	// nHist and nEntry size a session's history and reply-target arrays.
	nHist, nEntry int
	// slotOf resolves a message name to its history slot for
	// translation.Env.Lookup, the one name-based call left.
	slotOf map[string]int
}

// planStep is a compiled step plus what the session needs to run it.
type planStep struct {
	merge.Step
	codec *Codec
	// window is the color's convergence window on a receive.
	window time.Duration
	// hist is the history slot of Message, entry the reply-target slot of
	// Protocol and — on a send to the peer — req its requester slot.
	hist, entry, req int
}

// reqSlot is a row of the requester color table. txid is the path of the
// header field the peer echoes (the color's txid attribute), whose
// sockets are lent from session to session, or nil — one socket per
// session, told apart by its port alone. An integer txid the engine
// stamps with the lend's epoch; a String one the translation fills, and
// a reply must carry what the request in history slot sent carried: the
// same question, not the same lend.
type reqSlot struct {
	txid  []string
	stamp bool
	sent  int
}

func compilePlan(program []merge.Step, codecs map[string]*Codec) (*plan, error) {
	p := &plan{steps: make([]planStep, len(program)), slotOf: map[string]int{}}
	slot := func(m map[string]int, key string) int {
		if _, ok := m[key]; !ok {
			m[key] = len(m)
		}
		return m[key]
	}
	entries, reqs := map[string]int{}, map[string]int{}
	for i, step := range program {
		st := &p.steps[i]
		st.Step, st.codec, st.entry = step, codecs[step.Protocol], slot(entries, step.Protocol)
		if step.Kind == merge.StepDelta {
			continue
		}
		st.hist = slot(p.slotOf, step.Message)
		scheme, err := netengine.SchemeOf(step.Color)
		if err != nil {
			return nil, err
		}
		st.window = scheme.Convergence
		if step.Kind != merge.StepSend || step.ReplyToOrigin {
			continue
		}
		if st.req = slot(reqs, step.Protocol); st.req < len(p.reqs) {
			if rs := p.reqs[st.req]; rs.txid != nil && !rs.stamp && rs.sent != st.hist {
				return nil, serrors.Mark(fmt.Errorf("engine: color %s: String txid %q on two requests of protocol %s",
					step.Color, scheme.TxID, step.Protocol), serrors.ErrModelInvalid)
			}
			continue
		}
		rs := reqSlot{sent: st.hist}
		if scheme.TxID != "" {
			kind := st.codec.Parser.HeaderKind(scheme.TxID)
			if scheme.Transport != "udp" || (kind != message.KindInt && kind != message.KindString) {
				return nil, serrors.Mark(fmt.Errorf("engine: color %s: txid %q is not an integer or String header field of datagram protocol %s",
					step.Color, scheme.TxID, step.Protocol), serrors.ErrModelInvalid)
			}
			rs.txid, rs.stamp = message.SplitPath(scheme.TxID), kind == message.KindInt
		}
		p.reqs = append(p.reqs, rs)
	}
	if len(p.reqs) > 255 {
		return nil, fmt.Errorf("engine: %d client-role protocols, want at most 255", len(p.reqs))
	}
	p.nHist, p.nEntry = len(p.slotOf), len(entries)
	return p, nil
}
