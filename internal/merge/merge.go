// Package merge implements Starlink's merged automata (paper §III-C).
// A merged automaton A_{k1...kn} connects the k-colored automata of n
// protocols with δ-transitions: edges that exchange no messages but
// perform network-layer actions λ (package translation). Interoperation
// is possible — the automata are *mergeable* — when δ-transitions
// satisfying the paper's merge constraints (2) and (3) exist, and the
// semantic equivalence operator ⊨ (eq. 1) holds between the messages an
// automaton must emit and the sequences another has received.
package merge

import (
	"fmt"
	"strings"
	"sync"

	"starlink/internal/automata"
	"starlink/internal/mdl"
	"starlink/internal/translation"
)

// StateRef names a state within one of the merged automata.
type StateRef struct {
	Protocol string
	State    string
}

// String renders "SLP:s1".
func (r StateRef) String() string { return r.Protocol + ":" + r.State }

// ParseStateRef parses "SLP:s1".
func ParseStateRef(s string) (StateRef, error) {
	i := strings.IndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return StateRef{}, fmt.Errorf("merge: bad state ref %q (want PROTOCOL:state)", s)
	}
	return StateRef{Protocol: s[:i], State: s[i+1:]}, nil
}

// Delta is a δ-transition between two automata (different colors, no
// message I/O), carrying the λ action sequence to run when taken.
type Delta struct {
	From    StateRef
	To      StateRef
	Actions []*translation.Action
}

// Equivalence declares n ⊨ m⃗: the output message (by abstract name)
// is semantically equivalent to the sequence of input messages —
// every mandatory field of Output is derivable from the Inputs.
type Equivalence struct {
	Output string
	Inputs []string
}

// Merged is a merged automaton: the automata, the δ-transitions
// connecting them, the declared equivalences and the translation logic.
// A Merged is immutable once loaded: Compile and EntryProtocols
// memoize their result on the value (every validation, engine
// deployment and entry indexing of a case shares one compilation), so
// mutating the model after the first Compile has no effect.
type Merged struct {
	// Name identifies the bridge, e.g. "slp-to-upnp".
	Name string
	// Initiator is the protocol whose incoming request opens a session;
	// the δ chain must start and end in this automaton (constraint 4).
	Initiator    string
	Automata     []*automata.Automaton
	Deltas       []*Delta
	Equivalences []Equivalence
	Logic        *translation.Logic

	// Memoized compile artifacts (see Compile / EntryProtocols).
	compileOnce sync.Once
	program     []Step
	compileErr  error
	entryOnce   sync.Once
	entries     map[string]automata.Color
	entryErr    error
}

// AutomatonFor returns the member automaton for a protocol.
func (m *Merged) AutomatonFor(protocol string) (*automata.Automaton, bool) {
	for _, a := range m.Automata {
		if a.Protocol == protocol {
			return a, true
		}
	}
	return nil, false
}

// MessageNames returns the union M = ∪ M_i of abstract message names
// used by the member automata's transitions.
func (m *Merged) MessageNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range m.Automata {
		for _, t := range a.Transitions {
			if !seen[t.Message] {
				seen[t.Message] = true
				out = append(out, t.Message)
			}
		}
	}
	return out
}

// Validate checks the merged automaton against the paper's constraints:
//
//   - every member automaton is individually well-formed;
//   - δ-transitions reference existing states of distinct automata;
//   - constraint (2): a δ entering automaton A_j lands on A_j's initial
//     state, and leaves a state of A_i reached by a receive-transition
//     (the bridge has content in the state queue to translate from);
//   - constraint (3): a δ returning into an automaton leaves a final
//     state of the left automaton and enters a state with an outgoing
//     send-transition (the pending output can be emitted);
//   - constraint (4), weak merge: the δ-transitions chain the automata
//     through a directed path that starts and ends in the initiator.
func (m *Merged) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("merge: merged automaton without name")
	}
	if len(m.Automata) < 2 {
		return fmt.Errorf("merge: %s: need at least two automata", m.Name)
	}
	protos := map[string]bool{}
	for _, a := range m.Automata {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("merge: %s: %w", m.Name, err)
		}
		if protos[a.Protocol] {
			return fmt.Errorf("merge: %s: duplicate automaton for %q", m.Name, a.Protocol)
		}
		protos[a.Protocol] = true
	}
	if !protos[m.Initiator] {
		return fmt.Errorf("merge: %s: initiator %q is not a member automaton", m.Name, m.Initiator)
	}
	if len(m.Deltas) == 0 {
		return fmt.Errorf("merge: %s: no δ-transitions; automata are not merged", m.Name)
	}
	for _, d := range m.Deltas {
		if err := m.validateDelta(d); err != nil {
			return err
		}
	}
	if err := m.CheckWeaklyMerged(); err != nil {
		return err
	}
	if m.Logic == nil {
		return fmt.Errorf("merge: %s: missing translation logic", m.Name)
	}
	return nil
}

func (m *Merged) validateDelta(d *Delta) error {
	if d.From.Protocol == d.To.Protocol {
		return fmt.Errorf("merge: %s: δ %s -> %s stays within one automaton", m.Name, d.From, d.To)
	}
	fromA, ok := m.AutomatonFor(d.From.Protocol)
	if !ok {
		return fmt.Errorf("merge: %s: δ from unknown automaton %q", m.Name, d.From.Protocol)
	}
	toA, ok := m.AutomatonFor(d.To.Protocol)
	if !ok {
		return fmt.Errorf("merge: %s: δ to unknown automaton %q", m.Name, d.To.Protocol)
	}
	if _, ok := fromA.StateByName(d.From.State); !ok {
		return fmt.Errorf("merge: %s: δ from unknown state %s", m.Name, d.From)
	}
	if _, ok := toA.StateByName(d.To.State); !ok {
		return fmt.Errorf("merge: %s: δ to unknown state %s", m.Name, d.To)
	}
	for _, act := range d.Actions {
		if err := act.Validate(); err != nil {
			return fmt.Errorf("merge: %s: δ %s -> %s: %w", m.Name, d.From, d.To, err)
		}
	}

	// Constraint (2): forward δ lands on the target's initial state and
	// leaves a state reached by a receive-transition (so the state queue
	// holds content to translate). When the target automaton is in
	// *server role* (its initial transition is itself a receive), the
	// rationale does not apply — the bridge is waiting for a peer, not
	// producing an output — so the source may be send-reached. This
	// extension covers the reverse-UPnP cases where the bridge serves
	// the HTTP description itself (DESIGN.md §6). Constraint (3):
	// return δ leaves a final state and lands on a state that can send.
	if d.To.State == toA.Initial {
		received := false
		for _, t := range fromA.InTransitions(d.From.State) {
			if t.Action == automata.Receive {
				received = true
			}
		}
		targetServerRole := false
		for _, t := range toA.OutTransitions(toA.Initial) {
			if t.Action == automata.Receive {
				targetServerRole = true
			}
		}
		if !received && !targetServerRole {
			return fmt.Errorf("merge: %s: δ %s -> %s violates constraint (2): source state has no incoming receive-transition",
				m.Name, d.From, d.To)
		}
		return nil
	}
	if fromA.IsFinal(d.From.State) {
		canSend := false
		for _, t := range toA.OutTransitions(d.To.State) {
			if t.Action == automata.Send {
				canSend = true
			}
		}
		if !canSend {
			return fmt.Errorf("merge: %s: δ %s -> %s violates constraint (3): target state has no outgoing send-transition",
				m.Name, d.From, d.To)
		}
		return nil
	}
	return fmt.Errorf("merge: %s: δ %s -> %s satisfies neither merge constraint (2) nor (3): target is not initial and source is not final",
		m.Name, d.From, d.To)
}

// CheckWeaklyMerged verifies constraint (4): the δ-transitions chain
// the automata through a directed path that starts in the initiator
// and executes every transition and δ exactly once, ending in a final
// state (the formula's path s^1_{i1} δ→ s^2_0, …, s^n_n δ→ s with
// s ∈ States(A¹) ∪ States(Aⁿ)). The check runs the same deterministic
// walk the engine executes — see Compile.
func (m *Merged) CheckWeaklyMerged() error {
	_, err := m.Compile()
	return err
}

// IsStronglyMerged reports whether the automata are mergeable two by
// two (the paper's strong merge): every ordered pair of member automata
// is connected by some δ-transition in each direction along the chain.
// The paper notes this constraint is usually too strong; the case-study
// automata are weakly merged.
func (m *Merged) IsStronglyMerged() bool {
	for _, a := range m.Automata {
		for _, b := range m.Automata {
			if a.Protocol == b.Protocol {
				continue
			}
			found := false
			for _, d := range m.Deltas {
				if d.From.Protocol == a.Protocol && d.To.Protocol == b.Protocol {
					found = true
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// CheckEquivalences verifies the declared n ⊨ m⃗ relations against the
// MDL specifications (eq. 1): every *mandatory* field of the output
// message must be obtainable — either a translation-logic assignment
// targets it, or an input message carries a same-labelled field. In a
// message with an XML body, a mandatory field the MDL does not type is
// a leaf of that body (the parser flattens it out of there), so what
// provides Body provides it. specs maps protocol name to its MDL.
func (m *Merged) CheckEquivalences(specs map[string]*mdl.Spec) error {
	defFor := func(msgName string) (*mdl.MessageDef, *mdl.Spec) {
		for _, s := range specs {
			if d, ok := s.MessageByName(msgName); ok {
				return d, s
			}
		}
		return nil, nil
	}
	for _, eq := range m.Equivalences {
		outDef, outSpec := defFor(eq.Output)
		if outDef == nil {
			return fmt.Errorf("merge: %s: equivalence output %q not in any MDL", m.Name, eq.Output)
		}
		inputs := map[string]*mdl.MessageDef{}
		for _, in := range eq.Inputs {
			d, _ := defFor(in)
			if d == nil {
				return fmt.Errorf("merge: %s: equivalence input %q not in any MDL", m.Name, in)
			}
			inputs[in] = d
		}
		for _, mandatory := range outDef.Mandatory {
			if m.mandatoryCovered(eq, mandatory, inputs) {
				continue
			}
			if _, typed := outSpec.Types[mandatory]; !typed && outDef.Body == mdl.BodyXML && m.mandatoryCovered(eq, "Body", inputs) {
				continue
			}
			return fmt.Errorf("merge: %s: %s ⊨ %v fails: mandatory field %q of %s has no semantically equivalent source",
				m.Name, eq.Output, eq.Inputs, mandatory, eq.Output)
		}
	}
	return nil
}

func (m *Merged) mandatoryCovered(eq Equivalence, field string, inputs map[string]*mdl.MessageDef) bool {
	// Covered by an explicit assignment (possibly via T)? The source
	// may be any message of the received history m⃗ — eq. 1 quantifies
	// over the stored sequence, which includes the session's earlier
	// messages (Fig. 5 line 9 takes the reply XID from the original
	// request, not from the declared input HTTPOk).
	if m.Logic != nil {
		for _, a := range m.Logic.ForTarget(eq.Output) {
			if pathTargetsLabel(a.Target.Path.String(), field) {
				return true
			}
		}
	}
	// Covered by a same-labelled field in an input message definition?
	for _, def := range inputs {
		for _, f := range def.Fields {
			if f.Label == field {
				return true
			}
		}
	}
	return false
}

// pathTargetsLabel reports whether an XPath expression's first field
// step addresses the given top-level label.
func pathTargetsLabel(expr, label string) bool {
	return strings.Contains(expr, "[label='"+label+"']") ||
		strings.Contains(expr, `[label="`+label+`"]`)
}

// ChainOrder returns the protocols in δ-chain order starting at the
// initiator (e.g. [SLP, SSDP, HTTP]); it assumes Validate passed.
func (m *Merged) ChainOrder() []string {
	order := []string{m.Initiator}
	cur := m.Initiator
	used := map[*Delta]bool{}
	for {
		var next *Delta
		for _, d := range m.Deltas {
			if !used[d] && d.From.Protocol == cur {
				next = d
				break
			}
		}
		if next == nil || next.To.Protocol == m.Initiator {
			return order
		}
		used[next] = true
		order = append(order, next.To.Protocol)
		cur = next.To.Protocol
	}
}
