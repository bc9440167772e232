package xpath

import (
	"strings"
	"testing"
	"testing/quick"

	"starlink/internal/message"
)

func sampleMsg() *message.Message {
	m := message.New("SSDP", "SSDPResponse")
	m.AddPrimitive("ST", message.Str("urn:printer"))
	m.AddPrimitive("MX", message.Int(1))
	m.Add(&message.Field{Label: "LOCATION", Children: []*message.Field{
		{Label: "protocol", Value: message.Str("http")},
		{Label: "address", Value: message.Str("10.0.0.7")},
		{Label: "port", Value: message.Int(5431)},
		{Label: "resource", Value: message.Str("/desc.xml")},
	}})
	return m
}

func TestGetPrimitive(t *testing.T) {
	p, err := Compile("/field/primitiveField[label='ST']/value")
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Get(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "urn:printer" {
		t.Fatalf("got %q", s)
	}
}

func TestGetNested(t *testing.T) {
	p := MustCompile("/field/structuredField[label='LOCATION']/primitiveField[label='port']/value")
	v, err := p.Get(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 5431 {
		t.Fatalf("got %d", i)
	}
}

func TestGetWithoutValueStep(t *testing.T) {
	// Selecting the field itself (no /value) is allowed for SelectField.
	p := MustCompile("/field/structuredField[label='LOCATION']")
	f, err := p.SelectField(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if f.Label != "LOCATION" || !f.IsStructured() {
		t.Fatalf("field = %+v", f)
	}
}

func TestGetMissingField(t *testing.T) {
	p := MustCompile("/field/primitiveField[label='NOPE']/value")
	if _, err := p.Get(sampleMsg()); err == nil {
		t.Fatal("missing field should fail")
	}
}

func TestStructuredPredicateOnPrimitive(t *testing.T) {
	p := MustCompile("/field/structuredField[label='ST']/value")
	if _, err := p.Get(sampleMsg()); err == nil {
		t.Fatal("ST is primitive; structuredField step should fail")
	}
}

func TestSetExistingField(t *testing.T) {
	m := sampleMsg()
	p := MustCompile("/field/primitiveField[label='ST']/value")
	if err := p.Set(m, message.Str("urn:scanner")); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Field("ST")
	if s, _ := f.Value.AsString(); s != "urn:scanner" {
		t.Fatalf("ST = %q", s)
	}
}

func TestSetCreatesMissingFields(t *testing.T) {
	m := message.New("SLP", "SLPSrvReply")
	p := MustCompile("/field/primitiveField[label='URLEntry']/value")
	if err := p.Set(m, message.Str("service:x")); err != nil {
		t.Fatal(err)
	}
	f, ok := m.Field("URLEntry")
	if !ok {
		t.Fatal("URLEntry not created")
	}
	if s, _ := f.Value.AsString(); s != "service:x" {
		t.Fatalf("URLEntry = %q", s)
	}
}

func TestSetCreatesNestedStructure(t *testing.T) {
	m := message.New("P", "M")
	p := MustCompile("/field/structuredField[label='URL']/primitiveField[label='port']/value")
	if err := p.Set(m, message.Int(8080)); err != nil {
		t.Fatal(err)
	}
	f, ok := m.Path("URL.port")
	if !ok {
		t.Fatal("URL.port not created")
	}
	if i, _ := f.Value.AsInt(); i != 8080 {
		t.Fatalf("port = %d", i)
	}
	u, _ := m.Field("URL")
	if !u.IsStructured() {
		t.Fatal("URL should be structured")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []struct {
		expr string
		want string
	}{
		{"relative/path", "absolute"},
		{"/primitiveField[label='x']/value", "must start with /field"},
		{"/field/value/primitiveField[label='x']", "value step must be last"},
		{"/field/primitiveField/value", "needs a [label="},
		{"/field/primitiveField[label='x'", "unterminated"},
		{"/field/primitiveField[name='x']/value", "unsupported predicate"},
		{"/field/primitiveField[label=x]/value", "must be quoted"},
		{"/field/weirdAxis[label='x']/value", "unsupported step"},
		{"/field//value", "empty step"},
		{"/field/value[label='x']", "no predicate"},
	}
	for _, tt := range bad {
		_, err := Compile(tt.expr)
		if err == nil {
			t.Errorf("%q: want error", tt.expr)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%q: error %q missing %q", tt.expr, err, tt.want)
		}
	}
}

func TestDoubleQuotedPredicate(t *testing.T) {
	p, err := Compile(`/field/primitiveField[label="ST"]/value`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Get(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "urn:printer" {
		t.Fatalf("got %q", s)
	}
}

func TestFieldPathBuilder(t *testing.T) {
	p := FieldPath("LOCATION.port")
	v, err := p.Get(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 5431 {
		t.Fatalf("got %d", i)
	}
	p = FieldPath("ST")
	v, err = p.Get(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.AsString(); s != "urn:printer" {
		t.Fatalf("got %q", s)
	}
}

// Property: Set followed by Get returns the written value, for
// arbitrary label and integer payloads.
func TestQuickSetGetInverse(t *testing.T) {
	f := func(labelRaw []byte, val int64) bool {
		label := "F"
		for _, b := range labelRaw {
			label += string(rune('a' + b%26))
		}
		m := message.New("P", "M")
		p, err := Compile("/field/primitiveField[label='" + label + "']/value")
		if err != nil {
			return false
		}
		if err := p.Set(m, message.Int(val)); err != nil {
			return false
		}
		v, err := p.Get(m)
		if err != nil {
			return false
		}
		got, _ := v.AsInt()
		return got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledEvalAllocs pins the steady state of a translation: Eval
// (through Get and SelectField) and Set over existing fields allocate
// nothing.
func TestCompiledEvalAllocs(t *testing.T) {
	msg := message.New("SSDP", "SSDPResponse")
	msg.Add(&message.Field{Label: "LOCATION", Children: []*message.Field{
		{Label: "address", Value: message.Str("10.0.0.7")},
		{Label: "port", Value: message.Int(5431)},
	}})
	p := MustCompile("/field/structuredField[label='LOCATION']/primitiveField[label='port']/value")
	v, err := p.Eval(msg)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 5431 {
		t.Fatalf("Eval = %v", v)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := p.Eval(msg); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("Compiled.Eval allocates %.1f per run, want 0", got)
	}
	// Set over existing fields is allocation free.
	if got := testing.AllocsPerRun(100, func() {
		if err := p.Set(msg, message.Int(80)); err != nil {
			t.Error(err)
		}
	}); got != 0 {
		t.Errorf("Compiled.Set allocates %.1f per run, want 0", got)
	}
}
