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
	// txid is the requester color table, one row per client-role
	// protocol: the path of the header field the peer echoes (the color's
	// txid attribute), whose sockets are lent from session to session, or
	// nil — one socket per session, told apart by its port alone.
	txid [][]string
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
		if st.req = slot(reqs, step.Protocol); st.req < len(p.txid) {
			continue
		}
		var txid []string
		if scheme.TxID != "" {
			if scheme.Transport != "udp" || st.codec.Spec.HeaderField(scheme.TxID) == nil {
				return nil, serrors.Mark(fmt.Errorf("engine: color %s: txid %q is not a header field of datagram protocol %s",
					step.Color, scheme.TxID, step.Protocol), serrors.ErrModelInvalid)
			}
			txid = message.SplitPath(scheme.TxID)
		}
		p.txid = append(p.txid, txid)
	}
	if len(p.txid) > 255 {
		return nil, fmt.Errorf("engine: %d client-role protocols, want at most 255", len(p.txid))
	}
	p.nHist, p.nEntry = len(p.slotOf), len(entries)
	return p, nil
}
