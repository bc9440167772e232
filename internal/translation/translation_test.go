package translation

import (
	"strings"
	"testing"

	"starlink/internal/message"
	"starlink/internal/xpath"
)

func ref(msg, path string) FieldRef {
	return FieldRef{Message: msg, Path: xpath.MustCompile(path)}
}

func stPath() string      { return "/field/primitiveField[label='ST']/value" }
func srvTypePath() string { return "/field/primitiveField[label='SRVType']/value" }

func storedSLPRequest() *message.Message {
	m := message.New("SLP", "SLPSrvRequest")
	m.AddPrimitive("SRVType", "String", message.Str("service:printer"))
	m.AddPrimitive("XID", "Integer", message.Int(99))
	return m
}

func TestApplyFieldAssignment(t *testing.T) {
	// Fig. 4 node 1: SSDP M-Search ST := SLP SrvReq ServiceType.
	src := ref("SLPSrvRequest", srvTypePath())
	logic := &Logic{Assignments: []*Assignment{
		{Target: ref("SSDPMSearch", stPath()), Source: &src},
	}}
	funcs := NewFuncRegistry()
	if err := logic.Validate(funcs); err != nil {
		t.Fatal(err)
	}
	target := message.New("SSDP", "SSDPMSearch")
	stored := storedSLPRequest()
	env := Env{Lookup: func(name string) *message.Message {
		if name == "SLPSrvRequest" {
			return stored
		}
		return nil
	}}
	if err := logic.Apply(target, env, funcs); err != nil {
		t.Fatal(err)
	}
	f, ok := target.Field("ST")
	if !ok {
		t.Fatal("ST not assigned")
	}
	if s, _ := f.Value.AsString(); s != "service:printer" {
		t.Fatalf("ST = %q", s)
	}
}

func TestApplyConstWithVars(t *testing.T) {
	c := "http://${bridge.host}:${bridge.http.port}/desc.xml"
	logic := &Logic{Assignments: []*Assignment{
		{Target: ref("SSDPResponse", "/field/primitiveField[label='LOCATION']/value"), Const: &c},
	}}
	funcs := NewFuncRegistry()
	target := message.New("SSDP", "SSDPResponse")
	env := Env{
		Lookup: func(string) *message.Message { return nil },
		Vars:   map[string]string{"bridge.host": "10.0.0.1", "bridge.http.port": "8080"},
	}
	if err := logic.Apply(target, env, funcs); err != nil {
		t.Fatal(err)
	}
	f, _ := target.Field("LOCATION")
	if s, _ := f.Value.AsString(); s != "http://10.0.0.1:8080/desc.xml" {
		t.Fatalf("LOCATION = %q", s)
	}
}

func TestApplyWithTranslationFunction(t *testing.T) {
	src := ref("DNSResponse", "/field/primitiveField[label='RDATA']/value")
	logic := &Logic{Assignments: []*Assignment{
		{Target: ref("SLPSrvReply", "/field/primitiveField[label='URLEntry']/value"),
			Source: &src, Func: "service-url"},
	}}
	funcs := NewFuncRegistry()
	stored := message.New("mDNS", "DNSResponse")
	stored.AddPrimitive("RDATA", "String", message.Str("printer._ipp.local"))
	target := message.New("SLP", "SLPSrvReply")
	env := Env{Lookup: func(name string) *message.Message { return stored }}
	if err := logic.Apply(target, env, funcs); err != nil {
		t.Fatal(err)
	}
	f, _ := target.Field("URLEntry")
	if s, _ := f.Value.AsString(); s != "service:printer._ipp.local" {
		t.Fatalf("URLEntry = %q", s)
	}
}

func TestApplyMissingSourceMessage(t *testing.T) {
	src := ref("Ghost", stPath())
	logic := &Logic{Assignments: []*Assignment{
		{Target: ref("SSDPMSearch", stPath()), Source: &src},
	}}
	target := message.New("SSDP", "SSDPMSearch")
	env := Env{Lookup: func(string) *message.Message { return nil }}
	err := logic.Apply(target, env, NewFuncRegistry())
	if err == nil || !strings.Contains(err.Error(), "not stored") {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyMissingSourceField(t *testing.T) {
	src := ref("SLPSrvRequest", "/field/primitiveField[label='Ghost']/value")
	logic := &Logic{Assignments: []*Assignment{
		{Target: ref("SSDPMSearch", stPath()), Source: &src},
	}}
	target := message.New("SSDP", "SSDPMSearch")
	stored := storedSLPRequest()
	env := Env{Lookup: func(string) *message.Message { return stored }}
	if err := logic.Apply(target, env, NewFuncRegistry()); err == nil {
		t.Fatal("missing source field should fail")
	}
}

func TestAssignmentValidate(t *testing.T) {
	funcs := NewFuncRegistry()
	src := ref("A", stPath())
	c := "x"
	tests := []struct {
		name string
		a    *Assignment
		ok   bool
	}{
		{"valid source", &Assignment{Target: ref("B", stPath()), Source: &src}, true},
		{"valid const", &Assignment{Target: ref("B", stPath()), Const: &c}, true},
		{"no source or const", &Assignment{Target: ref("B", stPath())}, false},
		{"both source and const", &Assignment{Target: ref("B", stPath()), Source: &src, Const: &c}, false},
		{"missing target", &Assignment{Source: &src}, false},
		{"unknown T", &Assignment{Target: ref("B", stPath()), Source: &src, Func: "nope"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.a.Validate(funcs)
			if (err == nil) != tt.ok {
				t.Fatalf("err = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestBuiltinTranslationFuncs(t *testing.T) {
	funcs := NewFuncRegistry()
	cases := []struct {
		fn   string
		in   message.Value
		want string
		ok   bool
	}{
		{"identity", message.Str("x"), "x", true},
		{"to-string", message.Int(42), "42", true},
		{"to-int", message.Str(" 17 "), "17", true},
		{"to-int", message.Str("abc"), "", false},
		{"trim", message.Str("  padded  "), "padded", true},
		{"service-url", message.Str("http://h:1/x"), "http://h:1/x", true},
		{"service-url", message.Str("printer.local"), "service:printer.local", true},
		{"service-url", message.Str("service:lpr://h"), "service:lpr://h", true},
		{"service-url", message.Str(""), "", false},
	}
	for _, tt := range cases {
		fn, err := funcs.Lookup(tt.fn)
		if err != nil {
			t.Fatalf("%s: %v", tt.fn, err)
		}
		out, err := fn(tt.in)
		if tt.ok != (err == nil) {
			t.Errorf("%s(%v): err = %v", tt.fn, tt.in, err)
			continue
		}
		if tt.ok && out.Text() != tt.want {
			t.Errorf("%s(%v) = %q, want %q", tt.fn, tt.in, out.Text(), tt.want)
		}
	}
	if _, err := funcs.Lookup("missing"); err == nil {
		t.Error("unknown T should fail")
	}
	if err := funcs.Register("identity", nil); err == nil {
		t.Error("duplicate T should fail")
	}
}

func TestExpandVars(t *testing.T) {
	vars := map[string]string{"a": "1", "b.c": "2"}
	tests := []struct{ in, want string }{
		{"plain", "plain"},
		{"${a}", "1"},
		{"x${a}y${b.c}z", "x1y2z"},
		{"${missing}", ""},
		{"${unterminated", "${unterminated"},
	}
	for _, tt := range tests {
		if got := expandVars(tt.in, vars); got != tt.want {
			t.Errorf("expandVars(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestActionSetHost(t *testing.T) {
	act := &Action{Name: ActionSetHost, Args: []FieldRef{
		ref("SSDPResponse", "/field/structuredField[label='LOCATION']/primitiveField[label='address']/value"),
		ref("SSDPResponse", "/field/structuredField[label='LOCATION']/primitiveField[label='port']/value"),
	}}
	if err := act.Validate(); err != nil {
		t.Fatal(err)
	}
	stored := message.New("SSDP", "SSDPResponse")
	stored.Add(&message.Field{Label: "LOCATION", Children: []*message.Field{
		{Label: "address", Value: message.Str("10.0.0.7")},
		{Label: "port", Value: message.Int(5431)},
	}})
	vals, err := act.Resolve(func(string) *message.Message { return stored })
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("vals = %d", len(vals))
	}
	if s, _ := vals[0].AsString(); s != "10.0.0.7" {
		t.Errorf("host = %q", s)
	}
	if p, _ := vals[1].AsInt(); p != 5431 {
		t.Errorf("port = %d", p)
	}
}

func TestActionValidateErrors(t *testing.T) {
	if err := (&Action{Name: "teleport"}).Validate(); err == nil {
		t.Error("unknown action should fail")
	}
	if err := (&Action{Name: ActionSetHost, Args: []FieldRef{ref("A", stPath())}}).Validate(); err == nil {
		t.Error("setHost with 1 arg should fail")
	}
}

func TestActionResolveMissingMessage(t *testing.T) {
	act := &Action{Name: ActionSetHost, Args: []FieldRef{ref("A", stPath()), ref("A", stPath())}}
	if _, err := act.Resolve(func(string) *message.Message { return nil }); err == nil {
		t.Fatal("missing stored message should fail")
	}
}

const fig8XML = `
<TranslationLogic>
 <Assignment>
  <Field>
   <Message>SSDPMSearch</Message>
   <Xpath>/field/primitiveField[label='ST']/value</Xpath>
  </Field>
  <Field>
   <Message>SLPSrvRequest</Message>
   <Xpath>/field/primitiveField[label='SRVType']/value</Xpath>
  </Field>
 </Assignment>
 <Assignment>
  <Field>
   <Message>SSDPMSearch</Message>
   <Xpath>/field/primitiveField[label='MAN']/value</Xpath>
  </Field>
  <Value>"ssdp:discover"</Value>
 </Assignment>
 <Assignment function="service-url">
  <Field>
   <Message>SLPSrvReply</Message>
   <Xpath>/field/primitiveField[label='URLEntry']/value</Xpath>
  </Field>
  <Field>
   <Message>HTTPOk</Message>
   <Xpath>/field/primitiveField[label='URLBase']/value</Xpath>
  </Field>
 </Assignment>
</TranslationLogic>`

func TestParseLogicXMLFig8(t *testing.T) {
	logic, err := ParseLogicXML(strings.NewReader(fig8XML))
	if err != nil {
		t.Fatal(err)
	}
	if len(logic.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(logic.Assignments))
	}
	a := logic.Assignments[0]
	if a.Target.Message != "SSDPMSearch" || a.Source.Message != "SLPSrvRequest" {
		t.Fatalf("a = %+v", a)
	}
	b := logic.Assignments[1]
	if b.Const == nil || *b.Const != `"ssdp:discover"` {
		t.Fatalf("b = %+v", b)
	}
	c := logic.Assignments[2]
	if c.Func != "service-url" {
		t.Fatalf("c = %+v", c)
	}
	if err := logic.Validate(NewFuncRegistry()); err != nil {
		t.Fatal(err)
	}
	if got := len(logic.ForTarget("SSDPMSearch")); got != 2 {
		t.Fatalf("ForTarget = %d", got)
	}
}

func TestParseLogicXMLErrors(t *testing.T) {
	bad := []string{
		`<TranslationLogic><Assignment></Assignment></TranslationLogic>`,
		`<TranslationLogic><Assignment><Field><Message>A</Message><Xpath>/field/primitiveField[label='x']/value</Xpath></Field></Assignment></TranslationLogic>`,
		`<TranslationLogic><Assignment><Field><Message>A</Message><Xpath>bad path</Xpath></Field><Value>v</Value></Assignment></TranslationLogic>`,
		`<TranslationLogic><Assignment><Field><Xpath>/field/primitiveField[label='x']/value</Xpath></Field><Value>v</Value></Assignment></TranslationLogic>`,
		`not xml`,
	}
	for i, x := range bad {
		if _, err := ParseLogicXML(strings.NewReader(x)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
