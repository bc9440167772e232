package merge

import (
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/mdl"
	"starlink/internal/translation"
	"starlink/internal/xpath"
)

func color(port string, group string) automata.Color {
	attrs := []automata.Attr{
		{Key: automata.AttrTransport, Value: "udp"},
		{Key: automata.AttrPort, Value: port},
		{Key: automata.AttrMode, Value: "async"},
	}
	if group != "" {
		attrs = append(attrs,
			automata.Attr{Key: automata.AttrMulticast, Value: "yes"},
			automata.Attr{Key: automata.AttrGroup, Value: group})
	} else {
		attrs = append(attrs, automata.Attr{Key: automata.AttrMulticast, Value: "no"})
	}
	return automata.NewColor(attrs...)
}

// slpA is the paper's Fig. 1 (server-side view: receive request, send reply).
func slpA() *automata.Automaton {
	c := color("427", "239.255.255.253")
	return &automata.Automaton{
		Protocol: "SLP",
		States:   []*automata.State{{Name: "s0", Color: c}, {Name: "s1", Color: c}},
		Initial:  "s0", Finals: []string{"s1"},
		Transitions: []*automata.Transition{
			{From: "s0", To: "s1", Action: automata.Receive, Message: "SLPSrvRequest"},
			{From: "s1", To: "s1", Action: automata.Send, Message: "SLPSrvReply", ReplyToOrigin: true},
		},
	}
}

// ssdpA is the paper's Fig. 2 (client-side view: send search, receive response).
func ssdpA() *automata.Automaton {
	c := color("1900", "239.255.255.250")
	return &automata.Automaton{
		Protocol: "SSDP",
		States: []*automata.State{
			{Name: "s0", Color: c}, {Name: "s1", Color: c}, {Name: "s2", Color: c},
		},
		Initial: "s0", Finals: []string{"s2"},
		Transitions: []*automata.Transition{
			{From: "s0", To: "s1", Action: automata.Send, Message: "SSDPMSearch"},
			{From: "s1", To: "s2", Action: automata.Receive, Message: "SSDPResponse"},
		},
	}
}

// httpA is the paper's Fig. 3.
func httpA() *automata.Automaton {
	c := automata.NewColor(
		automata.Attr{Key: automata.AttrTransport, Value: "tcp"},
		automata.Attr{Key: automata.AttrPort, Value: "80"},
		automata.Attr{Key: automata.AttrMode, Value: "sync"},
		automata.Attr{Key: automata.AttrMulticast, Value: "no"},
	)
	return &automata.Automaton{
		Protocol: "HTTP",
		States: []*automata.State{
			{Name: "s0", Color: c}, {Name: "s1", Color: c}, {Name: "s2", Color: c},
		},
		Initial: "s0", Finals: []string{"s2"},
		Transitions: []*automata.Transition{
			{From: "s0", To: "s1", Action: automata.Send, Message: "HTTPGet"},
			{From: "s1", To: "s2", Action: automata.Receive, Message: "HTTPOk"},
		},
	}
}

func ref(msg, label string) translation.FieldRef {
	return translation.FieldRef{
		Message: msg,
		Path:    xpath.MustCompile("/field/primitiveField[label='" + label + "']/value"),
	}
}

func someLogic() *translation.Logic {
	src := ref("SLPSrvRequest", "SRVType")
	src2 := ref("HTTPOk", "URLBase")
	src3 := ref("SLPSrvRequest", "XID")
	src4 := ref("SSDPResponse", "LOCATION")
	return &translation.Logic{Assignments: []*translation.Assignment{
		{Target: ref("SSDPMSearch", "ST"), Source: &src},
		{Target: ref("HTTPGet", "URI"), Source: &src4},
		{Target: ref("SLPSrvReply", "URLEntry"), Source: &src2},
		{Target: ref("SLPSrvReply", "XID"), Source: &src3},
	}}
}

// fig4 builds the paper's Fig. 4 merged automaton: SLP ⊗ SSDP ⊗ HTTP.
func fig4() *Merged {
	setHost := &translation.Action{Name: translation.ActionSetHost, Args: []translation.FieldRef{
		{Message: "SSDPResponse", Path: xpath.MustCompile("/field/structuredField[label='LOCATION']/primitiveField[label='address']/value")},
		{Message: "SSDPResponse", Path: xpath.MustCompile("/field/structuredField[label='LOCATION']/primitiveField[label='port']/value")},
	}}
	return &Merged{
		Name:      "slp-to-upnp",
		Initiator: "SLP",
		Automata:  []*automata.Automaton{slpA(), ssdpA(), httpA()},
		Deltas: []*Delta{
			{From: StateRef{"SLP", "s1"}, To: StateRef{"SSDP", "s0"}},
			{From: StateRef{"SSDP", "s2"}, To: StateRef{"HTTP", "s0"}, Actions: []*translation.Action{setHost}},
			{From: StateRef{"HTTP", "s2"}, To: StateRef{"SLP", "s1"}},
		},
		Equivalences: []Equivalence{
			{Output: "SSDPMSearch", Inputs: []string{"SLPSrvRequest"}},
			{Output: "HTTPGet", Inputs: []string{"SSDPResponse"}},
			{Output: "SLPSrvReply", Inputs: []string{"HTTPOk"}},
		},
		Logic: someLogic(),
	}
}

func TestValidateFig4(t *testing.T) {
	m := fig4()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.IsStronglyMerged() {
		t.Error("Fig. 4 is weakly merged, not strongly")
	}
	order := m.ChainOrder()
	if len(order) != 3 || order[0] != "SLP" || order[1] != "SSDP" || order[2] != "HTTP" {
		t.Fatalf("chain = %v", order)
	}
	names := m.MessageNames()
	if len(names) != 6 {
		t.Fatalf("message names = %v", names)
	}
}

func TestValidateConstraint2(t *testing.T) {
	// δ leaving a state with no incoming receive violates (2).
	m := fig4()
	m.Deltas[0].From = StateRef{"SLP", "s0"} // s0 has no incoming receive
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "constraint (2)") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateConstraint3(t *testing.T) {
	// Return δ into a state with no outgoing send violates (3):
	// SSDP s1 can only receive.
	m := fig4()
	m.Deltas[2] = &Delta{From: StateRef{"HTTP", "s2"}, To: StateRef{"SSDP", "s1"}}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "constraint (3)") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateNeitherConstraint(t *testing.T) {
	m := fig4()
	// Target neither initial nor source final.
	m.Deltas[1].From = StateRef{"SSDP", "s1"}
	m.Deltas[1].To = StateRef{"HTTP", "s1"}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "neither merge constraint") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateWeakMergeChain(t *testing.T) {
	// Removing the return δ breaks constraint (4): the initiator's
	// reply transition can never execute.
	m := fig4()
	m.Deltas = m.Deltas[:2]
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "never executed") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateNoInitiatorDelta(t *testing.T) {
	m := fig4()
	m.Initiator = "HTTP"
	m.Deltas = []*Delta{
		{From: StateRef{"SLP", "s1"}, To: StateRef{"SSDP", "s0"}},
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "never executed") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileFig4Program(t *testing.T) {
	m := fig4()
	program, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range program {
		got = append(got, s.String())
	}
	want := []string{
		"SLP:s0 recv SLPSrvRequest",
		"SLP:s1 δ-> SSDP:s0",
		"SSDP:s0 send SSDPMSearch",
		"SSDP:s1 recv SSDPResponse",
		"SSDP:s2 δ-> HTTP:s0",
		"HTTP:s0 send HTTPGet",
		"HTTP:s1 recv HTTPOk",
		"HTTP:s2 δ-> SLP:s1",
		"SLP:s1 send SLPSrvReply",
	}
	if len(got) != len(want) {
		t.Fatalf("program:\n%s", strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The final reply must be flagged reply-to-origin.
	last := program[len(program)-1]
	if !last.ReplyToOrigin {
		t.Fatal("final send must reply to origin")
	}
}

func TestEntryProtocols(t *testing.T) {
	m := fig4()
	entries, err := m.EntryProtocols()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %v", entries)
	}
	c, ok := entries["SLP"]
	if !ok {
		t.Fatal("SLP entry missing")
	}
	if g, _ := c.Get(automata.AttrGroup); g != "239.255.255.253" {
		t.Fatalf("entry color = %v", c)
	}
}

func TestValidateMiscErrors(t *testing.T) {
	t.Run("single automaton", func(t *testing.T) {
		m := &Merged{Name: "x", Initiator: "SLP", Automata: []*automata.Automaton{slpA()}}
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "at least two") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate protocol", func(t *testing.T) {
		m := fig4()
		m.Automata = append(m.Automata, slpA())
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate automaton") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown initiator", func(t *testing.T) {
		m := fig4()
		m.Initiator = "CORBA"
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "not a member") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("delta within one automaton", func(t *testing.T) {
		m := fig4()
		m.Deltas[0].To = StateRef{"SLP", "s0"}
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "stays within") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("delta to unknown state", func(t *testing.T) {
		m := fig4()
		m.Deltas[0].To = StateRef{"SSDP", "ghost"}
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "unknown state") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("missing logic", func(t *testing.T) {
		m := fig4()
		m.Logic = nil
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "translation logic") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestParseStateRef(t *testing.T) {
	r, err := ParseStateRef("SLP:s1")
	if err != nil || r.Protocol != "SLP" || r.State != "s1" {
		t.Fatalf("r=%v err=%v", r, err)
	}
	for _, bad := range []string{"SLP", ":s1", "SLP:", ""} {
		if _, err := ParseStateRef(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
	if r.String() != "SLP:s1" {
		t.Fatalf("String = %q", r.String())
	}
}

const slpMiniMDL = `
<MDL protocol="SLP" dialect="binary">
 <Types><FID>Integer</FID><XID>Integer</XID><SRVTypeLength>Integer</SRVTypeLength><SRVType>String</SRVType>
  <URLLength>Integer</URLLength><URLEntry>String</URLEntry></Types>
 <Header type="SLP"><FID>8</FID><XID>16</XID></Header>
 <Message type="SLPSrvRequest" mandatory="SRVType"><Rule>FID=1</Rule>
  <SRVTypeLength>16</SRVTypeLength><SRVType>SRVTypeLength</SRVType></Message>
 <Message type="SLPSrvReply" mandatory="URLEntry,XID"><Rule>FID=2</Rule>
  <URLLength>16</URLLength><URLEntry>URLLength</URLEntry></Message>
</MDL>`

const ssdpMiniMDL = `
<MDL protocol="SSDP" dialect="text">
 <Types><Method>String</Method><URI>String</URI><Version>String</Version><ST>String</ST><LOCATION>URL</LOCATION></Types>
 <Header type="SSDP"><Method>32</Method><URI>32</URI><Version>13,10</Version><Fields>13,10:58</Fields></Header>
 <Message type="SSDPMSearch" mandatory="ST"><Rule>Method=M-SEARCH</Rule></Message>
 <Message type="SSDPResponse" mandatory="LOCATION"><Rule>Method=HTTP/1.1</Rule></Message>
</MDL>`

const httpMiniMDL = `
<MDL protocol="HTTP" dialect="text">
 <Types><Method>String</Method><URI>String</URI><Version>String</Version></Types>
 <Header type="HTTP"><Method>32</Method><URI>32</URI><Version>13,10</Version><Fields>13,10:58</Fields></Header>
 <Message type="HTTPGet" mandatory="URI"><Rule>Method=GET</Rule></Message>
 <Message type="HTTPOk" body="xml" mandatory="URLBase"><Rule>Method=HTTP/1.1</Rule></Message>
</MDL>`

func loadSpecs(t *testing.T) map[string]*mdl.Spec {
	t.Helper()
	out := map[string]*mdl.Spec{}
	for name, x := range map[string]string{"SLP": slpMiniMDL, "SSDP": ssdpMiniMDL, "HTTP": httpMiniMDL} {
		s, err := mdl.ParseXMLString(x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

func TestCheckEquivalencesHolds(t *testing.T) {
	m := fig4()
	if err := m.CheckEquivalences(loadSpecs(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckEquivalencesFailsWithoutAssignment(t *testing.T) {
	m := fig4()
	// Drop the assignment feeding SLPSrvReply.URLEntry: ⊨ must fail for
	// the mandatory URLEntry field.
	var kept []*translation.Assignment
	for _, a := range m.Logic.Assignments {
		if a.Target.Message == "SLPSrvReply" {
			continue
		}
		kept = append(kept, a)
	}
	m.Logic = &translation.Logic{Assignments: kept}
	err := m.CheckEquivalences(loadSpecs(t))
	if err == nil || !strings.Contains(err.Error(), "no semantically equivalent source") {
		t.Fatalf("err = %v", err)
	}
}

// A mandatory field of an XML-body message that the MDL does not type
// is a leaf of the body, so the assignment that writes Body provides
// it; without that assignment ⊨ fails.
func TestCheckEquivalencesXMLBodyLeaf(t *testing.T) {
	body := &translation.Assignment{
		Target: translation.FieldRef{Message: "HTTPOk", Path: xpath.MustCompile("/field/primitiveField[label='Body']/value")},
		Source: &translation.FieldRef{Message: "SLPSrvReply", Path: xpath.MustCompile("/field/primitiveField[label='URLEntry']/value")},
		Func:   "urlbase-xml",
	}
	m := &Merged{Name: "upnp-to-slp", Equivalences: []Equivalence{{Output: "HTTPOk", Inputs: []string{"SLPSrvReply"}}}}
	m.Logic = &translation.Logic{Assignments: []*translation.Assignment{body}}
	if err := m.CheckEquivalences(loadSpecs(t)); err != nil {
		t.Fatal(err)
	}
	m.Logic = &translation.Logic{}
	if err := m.CheckEquivalences(loadSpecs(t)); err == nil || !strings.Contains(err.Error(), `mandatory field "URLBase"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckEquivalencesUnknownMessages(t *testing.T) {
	m := fig4()
	m.Equivalences = []Equivalence{{Output: "Ghost", Inputs: []string{"SLPSrvRequest"}}}
	if err := m.CheckEquivalences(loadSpecs(t)); err == nil {
		t.Fatal("unknown output should fail")
	}
	m.Equivalences = []Equivalence{{Output: "SSDPMSearch", Inputs: []string{"Ghost"}}}
	if err := m.CheckEquivalences(loadSpecs(t)); err == nil {
		t.Fatal("unknown input should fail")
	}
}

func resolver() Resolver {
	return ResolverFunc(func(p string) (*automata.Automaton, error) {
		switch p {
		case "SLP":
			return slpA(), nil
		case "SSDP":
			return ssdpA(), nil
		case "HTTP":
			return httpA(), nil
		}
		return nil, &unknownProto{p}
	})
}

type unknownProto struct{ p string }

func (e *unknownProto) Error() string { return "unknown protocol " + e.p }

const fig4XML = `
<MergedAutomaton name="slp-to-upnp" initiator="SLP">
 <AutomatonRef protocol="SLP"/>
 <AutomatonRef protocol="SSDP"/>
 <AutomatonRef protocol="HTTP"/>
 <Equivalence output="SSDPMSearch" inputs="SLPSrvRequest"/>
 <Equivalence output="HTTPGet" inputs="SSDPResponse"/>
 <Equivalence output="SLPSrvReply" inputs="HTTPOk"/>
 <Delta from="SLP:s1" to="SSDP:s0"/>
 <Delta from="SSDP:s2" to="HTTP:s0">
  <Action name="setHost">
   <Arg message="SSDPResponse" xpath="/field/structuredField[label='LOCATION']/primitiveField[label='address']/value"/>
   <Arg message="SSDPResponse" xpath="/field/structuredField[label='LOCATION']/primitiveField[label='port']/value"/>
  </Action>
 </Delta>
 <Delta from="HTTP:s2" to="SLP:s1"/>
 <TranslationLogic>
  <Assignment>
   <Field><Message>SSDPMSearch</Message><Xpath>/field/primitiveField[label='ST']/value</Xpath></Field>
   <Field><Message>SLPSrvRequest</Message><Xpath>/field/primitiveField[label='SRVType']/value</Xpath></Field>
  </Assignment>
  <Assignment>
   <Field><Message>SLPSrvReply</Message><Xpath>/field/primitiveField[label='URLEntry']/value</Xpath></Field>
   <Field><Message>HTTPOk</Message><Xpath>/field/primitiveField[label='URLBase']/value</Xpath></Field>
  </Assignment>
  <Assignment>
   <Field><Message>SLPSrvReply</Message><Xpath>/field/primitiveField[label='XID']/value</Xpath></Field>
   <Field><Message>SLPSrvRequest</Message><Xpath>/field/primitiveField[label='XID']/value</Xpath></Field>
  </Assignment>
 </TranslationLogic>
</MergedAutomaton>`

func TestParseXMLFig4(t *testing.T) {
	m, err := ParseXMLString(fig4XML, resolver())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "slp-to-upnp" || m.Initiator != "SLP" {
		t.Fatalf("m = %+v", m)
	}
	if len(m.Deltas) != 3 || len(m.Deltas[1].Actions) != 1 {
		t.Fatalf("deltas = %+v", m.Deltas)
	}
	if m.Deltas[1].Actions[0].Name != translation.ActionSetHost {
		t.Fatalf("action = %+v", m.Deltas[1].Actions[0])
	}
	if len(m.Logic.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(m.Logic.Assignments))
	}
	if len(m.Equivalences) != 3 {
		t.Fatalf("equivalences = %d", len(m.Equivalences))
	}
}

func TestParseXMLErrors(t *testing.T) {
	if _, err := ParseXMLString(`<MergedAutomaton name="x" initiator="SLP"><AutomatonRef protocol="NOPE"/></MergedAutomaton>`, resolver()); err == nil {
		t.Fatal("unresolvable automaton should fail")
	}
	if _, err := ParseXMLString(`<MergedAutomaton name="x" initiator="SLP"><AutomatonRef protocol="SLP"/><AutomatonRef protocol="SSDP"/><Delta from="bad" to="SSDP:s0"/></MergedAutomaton>`, resolver()); err == nil {
		t.Fatal("bad state ref should fail")
	}
	if _, err := ParseXMLString(`garbage`, resolver()); err == nil {
		t.Fatal("bad xml should fail")
	}
}

// TestCompileMemoized checks that Compile and EntryProtocols are
// computed once per Merged value: validation, deployment and entry
// indexing share one compilation.
func TestCompileMemoized(t *testing.T) {
	m := fig4()
	p1, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Error("Compile recompiled instead of returning the memoized program")
	}
	e1, err := m.EntryProtocols()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m.EntryProtocols()
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != 1 {
		t.Fatalf("entries = %v", e1)
	}
	// Same map instance, not a recomputed copy.
	e1["sentinel"] = e1["SLP"]
	if _, ok := e2["sentinel"]; !ok {
		t.Error("EntryProtocols recomputed instead of returning the memoized index")
	}
	delete(e1, "sentinel")

	// Recompile bypasses the memo and yields a fresh program.
	p3, err := m.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if &p3[0] == &p1[0] {
		t.Error("Recompile returned the memoized program")
	}
	if len(p3) != len(p1) {
		t.Errorf("Recompile program differs: %d vs %d steps", len(p3), len(p1))
	}

	// Errors memoize too.
	bad := &Merged{Name: "bad", Initiator: "GHOST", Automata: []*automata.Automaton{slpA()}}
	if _, err1 := bad.Compile(); err1 == nil {
		t.Fatal("invalid merge should not compile")
	} else if _, err2 := bad.Compile(); err2 != err1 {
		t.Error("compile error was not memoized")
	}
}

// TestParseXMLLogicErrors pins the wording of translation-logic errors
// in a merged document: the logic is decoded in the document's own
// pass, and a malformed assignment must read exactly as it did when the
// element was re-parsed by the translation package's own decoder.
func TestParseXMLLogicErrors(t *testing.T) {
	const field = `<Field><Message>SSDPMSearch</Message><Xpath>/field/primitiveField[label='ST']/value</Xpath></Field>`
	for _, tc := range []struct{ logic, want string }{
		{`<Assignment/>`,
			`merge: x: translation: assignment 0 has no target field`},
		{`<Assignment>` + field + `</Assignment>`,
			`merge: x: translation: assignment 0 has no source`},
		{`<Assignment>` + field + field + `<Value>v</Value></Assignment>`,
			`merge: x: translation: assignment 0 has both source field and value`},
		{`<Assignment>` + field + `<Value>v</Value></Assignment><Assignment><Field><Xpath>/field</Xpath></Field><Value>v</Value></Assignment>`,
			`merge: x: translation: assignment 1 target: field without message name`},
		{`<Assignment>` + field + `<Field><Message>M</Message><Xpath>field[</Xpath></Field></Assignment>`,
			`merge: x: translation: assignment 0 source: xpath: "field[" must be absolute`},
	} {
		doc := `<MergedAutomaton name="x" initiator="SLP"><AutomatonRef protocol="SLP"/><AutomatonRef protocol="SSDP"/>` +
			`<Delta from="SLP:s1" to="SSDP:s0"/><TranslationLogic>` + tc.logic + `</TranslationLogic></MergedAutomaton>`
		_, err := ParseXMLString(doc, resolver())
		if err == nil || err.Error() != tc.want {
			t.Errorf("logic %s:\n got  %v\n want %s", tc.logic, err, tc.want)
		}
	}
}
