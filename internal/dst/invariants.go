package dst

import (
	"fmt"
	"sort"

	"starlink/internal/lanes"
)

// Violation is one failed invariant: which one, and the numbers that
// broke it.
type Violation struct {
	// Invariant names the catalog entry: sessions-terminal,
	// session-leak, lease-balance, lane-conservation,
	// drain-consistency, reply-isolation or expectations.
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Counter resolves one aggregate result counter by the names Expect
// uses (see Expectation).
func (r *Result) Counter(name string) int {
	sum := 0
	switch name {
	case "started":
		for _, n := range r.Started {
			sum += n
		}
	case "ended":
		for _, n := range r.Ended {
			sum += n
		}
	case "parseerrors":
		// Payloads a parser refused: no candidate classified them at the
		// dispatcher, or the engine's full parse failed.
		sum = r.Dispatch.ParseErrors
		for _, c := range r.Cases {
			sum += c.ParseErrors
		}
	case "dispatched":
		return r.Dispatch.Dispatched
	case "ambiguous":
		return r.Dispatch.Ambiguous
	case "unroutable":
		return r.Dispatch.Unroutable
	case "shed":
		for _, c := range r.Cases {
			for _, ct := range c.Lanes.Counters {
				sum += int(ct.Shed)
			}
		}
	default:
		for _, c := range r.Cases {
			switch name {
			case "completed":
				sum += c.Completed
			case "failed":
				sum += c.Failed
			case "ignored":
				sum += c.Ignored
			case "rejected":
				sum += c.Rejected
			case "dropped":
				sum += c.Dropped
			case "drainrejected":
				sum += c.DrainRejected
			case "stale":
				sum += c.Stale
			}
		}
	}
	return sum
}

// checkInvariants evaluates the whole catalog against a finished run.
// Every check reads only the Result — the artifact embeds enough to
// re-derive each verdict.
func checkInvariants(sc *Scenario, r *Result) []Violation {
	var out []Violation
	bad := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	// sessions-terminal: every admitted session reached a terminal
	// state, and the terminal counters agree with the lifecycle hooks.
	for _, c := range caseUnion(r) {
		started, ended := r.Started[c], r.Ended[c]
		if started != ended {
			bad("sessions-terminal", "%s: %d sessions started, %d ended", c, started, ended)
		}
		if st, ok := r.Cases[c]; ok {
			if terminal := st.Completed + st.Failed; ended != terminal {
				bad("sessions-terminal", "%s: %d session-end hooks but completed+failed = %d",
					c, ended, terminal)
			}
		}
	}

	// session-leak: at quiescence no engine may still hold a session
	// slot, a semaphore token, or a queued payload.
	for _, c := range sortedKeys(r.Cases) {
		p := r.Cases[c]
		if p.Live != 0 || p.SemInUse != 0 || p.LaneDepth != 0 {
			bad("session-leak", "%s: live=%d sem=%d lanedepth=%d at quiescence",
				c, p.Live, p.SemInUse, p.LaneDepth)
		}
	}

	// lease-balance: every pooled buffer leased during the run was
	// released exactly once by teardown.
	if r.LeaseDelta != 0 {
		bad("lease-balance", "%+d pooled buffer leases outstanding after teardown", r.LeaseDelta)
	}

	// lane-conservation: per case and lane, every admitted payload was
	// processed, evicted or drained — none vanished, none remain.
	for _, c := range sortedKeys(r.Cases) {
		for l, ct := range r.Cases[c].Lanes.Counters {
			if out := ct.Processed + ct.Evicted + ct.Drained; ct.Admitted != out {
				bad("lane-conservation", "%s/%s: admitted %d != processed %d + evicted %d + drained %d",
					c, lanes.Lane(l), ct.Admitted, ct.Processed, ct.Evicted, ct.Drained)
			}
			if ct.Depth != 0 {
				bad("lane-conservation", "%s/%s: depth %d at quiescence", c, lanes.Lane(l), ct.Depth)
			}
		}
	}

	// drain-consistency: drain refusals can only happen in a scenario
	// that drains.
	if sc.Drain == 0 {
		if n := r.Counter("drainrejected"); n != 0 {
			bad("drain-consistency", "%d drain rejections in a scenario that never drains", n)
		}
	}

	// reply-isolation: a client accepted only answers to its own
	// question — no session was handed a reply to another's request.
	for _, m := range r.Misdelivered {
		bad("reply-isolation", "%s", m)
	}

	// expectations: the scenario's counter floors.
	for _, e := range sc.Expect {
		if got := r.Counter(e.Counter); got < e.Min {
			bad("expectations", "%s = %d, want >= %d", e.Counter, got, e.Min)
		}
	}
	return out
}

// caseUnion returns every case name any surface mentions, sorted.
func caseUnion(r *Result) []string {
	set := map[string]bool{}
	for c := range r.Started {
		set[c] = true
	}
	for c := range r.Ended {
		set[c] = true
	}
	for c := range r.Cases {
		set[c] = true
	}
	return sortedKeys(set)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
