// Package automata implements Starlink's k-colored automata
// (paper §III-B). A protocol's behaviour is an automaton
// A_k = (Q, M, q0, F, Act, →, ⇒) whose transitions send (!) or receive
// (?) abstract messages. States carry a *color*: the tuple of low-level
// network semantics (transport protocol, port, unicast/multicast,
// sync/async mode, group address). An automaton may pass between two
// states over the network only if they share a color; crossing colors
// requires a δ-transition in a merged automaton (package merge).
//
// The color function f maps the ordered attribute tuple to a unique
// value k "without collisions" — Color.Key is that injective encoding,
// with Hash64 as a compact display form.
package automata

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// Attr is one key-value pair of network semantics, e.g.
// {"transport_protocol", "udp"} or {"port", "427"}.
type Attr struct {
	Key   string
	Value string
}

// Color is an ordered list of network attributes. The zero Color is the
// "uncolored" value; merged-automaton bridge-only states may be
// uncolored.
type Color struct {
	attrs []Attr
	// key is Key's result, computed once by NewColor: the network engine
	// asks for it every time a session opens a requester.
	key string
}

// NewColor builds a color from attributes. Attributes are
// canonicalised by key so semantically equal colors compare equal
// regardless of declaration order.
func NewColor(attrs ...Attr) Color {
	cp := make([]Attr, len(attrs))
	copy(cp, attrs)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	var sb strings.Builder
	for _, a := range cp {
		fmt.Fprintf(&sb, "%d:%s=%d:%s;", len(a.Key), a.Key, len(a.Value), a.Value)
	}
	return Color{attrs: cp, key: sb.String()}
}

// Attrs returns the canonicalised attributes.
func (c Color) Attrs() []Attr {
	out := make([]Attr, len(c.attrs))
	copy(out, c.attrs)
	return out
}

// Get returns the value of an attribute key.
func (c Color) Get(key string) (string, bool) {
	for _, a := range c.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// GetInt returns an integer attribute.
func (c Color) GetInt(key string) (int, bool) {
	v, ok := c.Get(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// IsZero reports whether the color has no attributes.
func (c Color) IsZero() bool { return len(c.attrs) == 0 }

// Key is the perfect hash function f of §III-B: an injective canonical
// encoding of the attribute tuple. Two colors are the same k iff their
// Keys are equal. Keys and values are length-prefixed so no two
// distinct tuples share an encoding. The zero Color's key is "".
func (c Color) Key() string { return c.key }

// Hash64 derives a compact 64-bit FNV-1a digest of the Key for display
// and logging. (Key itself is the collision-free identity.)
func (c Color) Hash64() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.key))
	return h.Sum64()
}

// Equal reports whether two colors are the same k.
func (c Color) Equal(o Color) bool { return c.key == o.key }

// String renders the color compactly for diagnostics.
func (c Color) String() string {
	if c.IsZero() {
		return "⊥"
	}
	parts := make([]string, 0, len(c.attrs))
	for _, a := range c.attrs {
		parts = append(parts, a.Key+"="+a.Value)
	}
	return strings.Join(parts, ",")
}

// Well-known color attribute keys used by the network engine.
const (
	AttrTransport = "transport_protocol" // "udp" or "tcp"
	AttrPort      = "port"
	AttrMode      = "mode"      // "sync" or "async"
	AttrMulticast = "multicast" // "yes" or "no"
	AttrGroup     = "group"     // multicast group address
	// AttrTxID, on a client-role datagram color, names the request header
	// field the peer echoes in its reply (the engine owns an integer one).
	AttrTxID = "txid"
)

// ActionKind distinguishes receive (?) from send (!) transitions,
// the Act = {?, !} set of the paper.
type ActionKind int

// Transition actions.
const (
	ActionInvalid ActionKind = iota
	Receive                  // ?m
	Send                     // !m
)

// String renders the paper's notation.
func (a ActionKind) String() string {
	switch a {
	case Receive:
		return "?"
	case Send:
		return "!"
	default:
		return "¿"
	}
}

// Transition is one edge of the automaton: s1 --(?m|!m)--> s2.
type Transition struct {
	From    string
	To      string
	Action  ActionKind
	Message string // abstract message name, e.g. "SLPSrvRequest"
	// ReplyToOrigin marks a send that must be addressed to the peer
	// whose request opened the session rather than to the color's
	// group/port (the legacy client awaiting the reply).
	ReplyToOrigin bool
}

// Label renders "?SLPSrvRequest" / "!SLPSrvReply".
func (t *Transition) Label() string { return t.Action.String() + t.Message }

// State is one node of the automaton.
type State struct {
	Name  string
	Color Color
}

// Automaton is a k-colored automaton for a single protocol.
type Automaton struct {
	// Protocol names the protocol whose behaviour this describes; it
	// must match the MDL spec's protocol so the engine can pair them.
	Protocol    string
	States      []*State
	Initial     string
	Finals      []string
	Transitions []*Transition
}

// StateByName returns the named state.
func (a *Automaton) StateByName(name string) (*State, bool) {
	for _, s := range a.States {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// IsFinal reports whether the named state is accepting.
func (a *Automaton) IsFinal(name string) bool {
	for _, f := range a.Finals {
		if f == name {
			return true
		}
	}
	return false
}

// OutTransitions returns the transitions leaving a state.
func (a *Automaton) OutTransitions(state string) []*Transition {
	var out []*Transition
	for _, t := range a.Transitions {
		if t.From == state {
			out = append(out, t)
		}
	}
	return out
}

// InTransitions returns the transitions entering a state.
func (a *Automaton) InTransitions(state string) []*Transition {
	var out []*Transition
	for _, t := range a.Transitions {
		if t.To == state {
			out = append(out, t)
		}
	}
	return out
}

// Colors returns the distinct colors used by the automaton's states, in
// first-use order. A single-protocol automaton is k-colored with one
// color; a merged automaton has one per protocol.
func (a *Automaton) Colors() []Color {
	var out []Color
	seen := map[string]bool{}
	for _, s := range a.States {
		if s.Color.IsZero() {
			continue
		}
		k := s.Color.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s.Color)
		}
	}
	return out
}

// Validate checks well-formedness: states named and unique, initial and
// final states exist, transitions reference existing states, every
// network transition connects same-colored states (the §III-B rule that
// an automaton passes between states "without any network issues, only
// if the concerned states share the same color"), and all states are
// reachable from the initial state.
func (a *Automaton) Validate() error {
	if a.Protocol == "" {
		return fmt.Errorf("automata: automaton without protocol name")
	}
	if len(a.States) == 0 {
		return fmt.Errorf("automata: %s: no states", a.Protocol)
	}
	names := map[string]bool{}
	for _, s := range a.States {
		if s.Name == "" {
			return fmt.Errorf("automata: %s: state without name", a.Protocol)
		}
		if names[s.Name] {
			return fmt.Errorf("automata: %s: duplicate state %q", a.Protocol, s.Name)
		}
		names[s.Name] = true
	}
	if a.Initial == "" {
		return fmt.Errorf("automata: %s: no initial state", a.Protocol)
	}
	if !names[a.Initial] {
		return fmt.Errorf("automata: %s: initial state %q undefined", a.Protocol, a.Initial)
	}
	if len(a.Finals) == 0 {
		return fmt.Errorf("automata: %s: no accepting states", a.Protocol)
	}
	for _, f := range a.Finals {
		if !names[f] {
			return fmt.Errorf("automata: %s: final state %q undefined", a.Protocol, f)
		}
	}
	adj := map[string][]string{}
	for _, t := range a.Transitions {
		if !names[t.From] || !names[t.To] {
			return fmt.Errorf("automata: %s: transition %s references undefined state (%s -> %s)",
				a.Protocol, t.Label(), t.From, t.To)
		}
		if t.Action != Receive && t.Action != Send {
			return fmt.Errorf("automata: %s: transition %s -> %s has invalid action",
				a.Protocol, t.From, t.To)
		}
		if t.Message == "" {
			return fmt.Errorf("automata: %s: transition %s -> %s has no message",
				a.Protocol, t.From, t.To)
		}
		from, _ := a.StateByName(t.From)
		to, _ := a.StateByName(t.To)
		if !from.Color.Equal(to.Color) {
			return fmt.Errorf("automata: %s: transition %s crosses colors %s -> %s without a δ-transition",
				a.Protocol, t.Label(), from.Color, to.Color)
		}
		adj[t.From] = append(adj[t.From], t.To)
	}
	// Reachability from the initial state.
	reached := map[string]bool{a.Initial: true}
	queue := []string{a.Initial}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !reached[next] {
				reached[next] = true
				queue = append(queue, next)
			}
		}
	}
	for _, s := range a.States {
		if !reached[s.Name] {
			return fmt.Errorf("automata: %s: state %q unreachable from %q", a.Protocol, s.Name, a.Initial)
		}
	}
	return nil
}

// DOT renders the automaton in Graphviz format; the regenerable form of
// the paper's Figs. 1, 2, 3 and 9.
func (a *Automaton) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n", a.Protocol)
	fmt.Fprintf(&sb, "  label=%q;\n", fmt.Sprintf("%s  k=%#x", colorLegend(a), colorsHash(a)))
	for _, s := range a.States {
		shape := "circle"
		if a.IsFinal(s.Name) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&sb, "  %q [shape=%s];\n", s.Name, shape)
	}
	fmt.Fprintf(&sb, "  _start [shape=point];\n  _start -> %q;\n", a.Initial)
	for _, t := range a.Transitions {
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", t.From, t.To, t.Label())
	}
	sb.WriteString("}\n")
	return sb.String()
}

func colorLegend(a *Automaton) string {
	cs := a.Colors()
	parts := make([]string, 0, len(cs))
	for _, c := range cs {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, " | ")
}

func colorsHash(a *Automaton) uint64 {
	h := fnv.New64a()
	for _, c := range a.Colors() {
		h.Write([]byte(c.key))
	}
	return h.Sum64()
}
