package automata

import (
	"strings"
	"testing"
	"testing/quick"
)

func slpColor() Color {
	return NewColor(
		Attr{AttrTransport, "udp"},
		Attr{AttrPort, "427"},
		Attr{AttrMode, "async"},
		Attr{AttrMulticast, "yes"},
		Attr{AttrGroup, "239.255.255.253"},
	)
}

// slpAutomaton reproduces the paper's Fig. 1.
func slpAutomaton() *Automaton {
	c := slpColor()
	return &Automaton{
		Protocol: "SLP",
		States:   []*State{{Name: "s0", Color: c}, {Name: "s1", Color: c}},
		Initial:  "s0",
		Finals:   []string{"s1"},
		Transitions: []*Transition{
			{From: "s0", To: "s1", Action: Receive, Message: "SLPSrvRequest"},
			{From: "s1", To: "s1", Action: Send, Message: "SLPSrvReply", ReplyToOrigin: true},
		},
	}
}

func TestColorCanonicalOrder(t *testing.T) {
	a := NewColor(Attr{"port", "427"}, Attr{"transport_protocol", "udp"})
	b := NewColor(Attr{"transport_protocol", "udp"}, Attr{"port", "427"})
	if !a.Equal(b) {
		t.Fatal("attribute order must not matter")
	}
	if a.Key() != b.Key() {
		t.Fatal("keys differ")
	}
	if a.Hash64() != b.Hash64() {
		t.Fatal("hashes differ")
	}
}

func TestColorAccessors(t *testing.T) {
	c := slpColor()
	if v, ok := c.Get(AttrGroup); !ok || v != "239.255.255.253" {
		t.Fatalf("group = %q,%v", v, ok)
	}
	if n, ok := c.GetInt(AttrPort); !ok || n != 427 {
		t.Fatalf("port = %d,%v", n, ok)
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("missing key should not be found")
	}
	if _, ok := c.GetInt(AttrMode); ok {
		t.Fatal("non-numeric GetInt should fail")
	}
	if c.IsZero() {
		t.Fatal("colored should not be zero")
	}
	var zero Color
	if !zero.IsZero() || zero.String() != "⊥" {
		t.Fatal("zero color misbehaves")
	}
}

func TestColorKeyInjective(t *testing.T) {
	// Tuples engineered to collide under naive concatenation.
	a := NewColor(Attr{"ab", "c"})
	b := NewColor(Attr{"a", "bc"})
	if a.Equal(b) {
		t.Fatal("distinct tuples must have distinct keys")
	}
	c := NewColor(Attr{"a", "b"}, Attr{"c", "d"})
	d := NewColor(Attr{"a", "bc"}, Attr{"", "d"})
	if c.Equal(d) {
		t.Fatal("length-prefixing failed")
	}
}

// TestColorKeyStored pins the canonical encoding NewColor computes once,
// the zero Color's empty key, and that asking for the key costs nothing
// (the network engine does, per requester a session opens).
func TestColorKeyStored(t *testing.T) {
	c := NewColor(Attr{"port", "427"}, Attr{"mode", "async"})
	if got, want := c.Key(), "4:mode=5:async;4:port=3:427;"; got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
	var zero Color
	if zero.Key() != "" || NewColor().Key() != "" || !zero.Equal(NewColor()) {
		t.Fatalf("zero color keys = %q, %q", zero.Key(), NewColor().Key())
	}
	if zero.Equal(c) {
		t.Fatal("the zero color equals a colored one")
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.Key() }); n != 0 {
		t.Fatalf("Key allocates %.0f times", n)
	}
}

// Property: Key is injective over generated attribute tuples — the
// paper's "perfect hash function ... without collisions".
func TestQuickColorKeyInjective(t *testing.T) {
	type tuple struct {
		K1, V1, K2, V2 string
	}
	f := func(a, b tuple) bool {
		ca := NewColor(Attr{a.K1, a.V1}, Attr{a.K2, a.V2})
		cb := NewColor(Attr{b.K1, b.V1}, Attr{b.K2, b.V2})
		// Equal canonical attrs => equal key; different attrs => different key.
		sameAttrs := func() bool {
			x, y := ca.Attrs(), cb.Attrs()
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}()
		return sameAttrs == ca.Equal(cb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFig1(t *testing.T) {
	a := slpAutomaton()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Colors()) != 1 {
		t.Fatalf("colors = %d, want 1 (single-protocol automaton)", len(a.Colors()))
	}
}

func TestValidateErrors(t *testing.T) {
	base := slpAutomaton

	t.Run("duplicate state", func(t *testing.T) {
		a := base()
		a.States = append(a.States, &State{Name: "s0", Color: slpColor()})
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("undefined initial", func(t *testing.T) {
		a := base()
		a.Initial = "ghost"
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "initial") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("no finals", func(t *testing.T) {
		a := base()
		a.Finals = nil
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "accepting") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("transition to undefined state", func(t *testing.T) {
		a := base()
		a.Transitions = append(a.Transitions, &Transition{From: "s1", To: "zz", Action: Send, Message: "M"})
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "undefined state") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("color crossing without delta", func(t *testing.T) {
		a := base()
		a.States = append(a.States, &State{Name: "s2", Color: NewColor(Attr{"port", "80"})})
		a.Transitions = append(a.Transitions, &Transition{From: "s1", To: "s2", Action: Send, Message: "M"})
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "crosses colors") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unreachable state", func(t *testing.T) {
		a := base()
		a.States = append(a.States, &State{Name: "island", Color: slpColor()})
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("transition without message", func(t *testing.T) {
		a := base()
		a.Transitions[0].Message = ""
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "no message") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestOutInTransitions(t *testing.T) {
	a := slpAutomaton()
	out := a.OutTransitions("s0")
	if len(out) != 1 || out[0].Message != "SLPSrvRequest" {
		t.Fatalf("out = %+v", out)
	}
	in := a.InTransitions("s1")
	if len(in) != 2 {
		t.Fatalf("in = %d", len(in))
	}
	if len(a.OutTransitions("nope")) != 0 {
		t.Fatal("unknown state should have no transitions")
	}
}

func TestTransitionLabel(t *testing.T) {
	tr := &Transition{Action: Receive, Message: "SLPSrvRequest"}
	if tr.Label() != "?SLPSrvRequest" {
		t.Fatalf("label = %q", tr.Label())
	}
	tr.Action = Send
	if tr.Label() != "!SLPSrvRequest" {
		t.Fatalf("label = %q", tr.Label())
	}
	if ActionInvalid.String() != "¿" {
		t.Fatal("invalid action string")
	}
}

func TestDOTExport(t *testing.T) {
	dot := slpAutomaton().DOT()
	for _, want := range []string{
		`digraph "SLP"`,
		`"s0" -> "s1" [label="?SLPSrvRequest"]`,
		`"s1" -> "s1" [label="!SLPSrvReply"]`,
		`"s1" [shape=doublecircle]`,
		"group=239.255.255.253",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

const fig2XML = `
<Automaton protocol="SSDP" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="1900"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="239.255.255.250"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="send" message="SSDPMSearch"/>
 <Transition from="s1" to="s2" action="receive" message="SSDPResponse"/>
</Automaton>`

func TestParseXMLFig2(t *testing.T) {
	a, err := ParseXMLString(fig2XML)
	if err != nil {
		t.Fatal(err)
	}
	if a.Protocol != "SSDP" || a.Initial != "s0" || len(a.Finals) != 1 {
		t.Fatalf("a = %+v", a)
	}
	s, ok := a.StateByName("s1")
	if !ok {
		t.Fatal("s1 missing")
	}
	if g, _ := s.Color.Get(AttrGroup); g != "239.255.255.250" {
		t.Fatalf("group = %q", g)
	}
	if len(a.Transitions) != 2 || a.Transitions[0].Action != Send {
		t.Fatalf("transitions = %+v", a.Transitions)
	}
}

func TestParseXMLStateColorOverride(t *testing.T) {
	x := `
<Automaton protocol="P" initial="a" finals="a">
 <Color><Attr key="port" value="1"/></Color>
 <State name="a">
  <Color><Attr key="port" value="2"/></Color>
 </State>
</Automaton>`
	a, err := ParseXMLString(x)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := a.StateByName("a")
	if p, _ := s.Color.GetInt("port"); p != 2 {
		t.Fatalf("override port = %d", p)
	}
}

func TestParseXMLBadAction(t *testing.T) {
	x := `
<Automaton protocol="P" initial="a" finals="a">
 <State name="a"/>
 <Transition from="a" to="a" action="teleport" message="M"/>
</Automaton>`
	if _, err := ParseXMLString(x); err == nil || !strings.Contains(err.Error(), "unknown action") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseXMLInvalidAutomaton(t *testing.T) {
	x := `<Automaton protocol="P" initial="ghost" finals="a"><State name="a"/></Automaton>`
	if _, err := ParseXMLString(x); err == nil {
		t.Fatal("invalid automaton should fail validation")
	}
	if _, err := ParseXMLString("<not xml"); err == nil {
		t.Fatal("bad xml should fail")
	}
}
