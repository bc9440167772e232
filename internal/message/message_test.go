package message

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		text string
	}{
		{"int", Int(42), KindInt, "42"},
		{"negative int", Int(-7), KindInt, "-7"},
		{"string", Str("hello"), KindString, "hello"},
		{"bytes", Bytes("\xde\xad"), KindBytes, "dead"},
		{"bool true", Bool(true), KindBool, "true"},
		{"bool false", Bool(false), KindBool, "false"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.v.Text(); got != tt.text {
				t.Errorf("Text() = %q, want %q", got, tt.text)
			}
			if !tt.v.IsValid() {
				t.Error("IsValid() = false, want true")
			}
		})
	}
}

func TestZeroValueInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Fatal("zero Value should be invalid")
	}
	if v.Text() != "" {
		t.Fatalf("zero Value Text() = %q, want empty", v.Text())
	}
	if v.Kind().String() != "invalid" {
		t.Fatalf("zero Kind = %q", v.Kind().String())
	}
}

func TestValueAccessors(t *testing.T) {
	if i, ok := Int(9).AsInt(); !ok || i != 9 {
		t.Errorf("AsInt = %d,%v", i, ok)
	}
	if _, ok := Int(9).AsString(); ok {
		t.Error("AsString on int should fail")
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Errorf("AsString = %q,%v", s, ok)
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Errorf("AsBool = %v,%v", v, ok)
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Str("1"), false},
		{Str("a"), Str("a"), true},
		{Bytes("\x01"), Bytes("\x01"), true},
		{Bytes("\x01"), Bytes("\x02"), false},
		{Bytes("a"), Str("a"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Value{}, Value{}, true},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMessageAddAndField(t *testing.T) {
	m := New("SLP", "SLPSrvRequest")
	m.AddPrimitive("XID", Int(77))
	m.AddPrimitive("SRVType", Str("printer"))

	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	f, ok := m.Field("XID")
	if !ok {
		t.Fatal("XID not found")
	}
	if v, _ := f.Value.AsInt(); v != 77 {
		t.Errorf("XID = %d, want 77", v)
	}
	if _, ok := m.Field("missing"); ok {
		t.Error("missing field should not be found")
	}
}

func TestMessageAddReplacesSameLabel(t *testing.T) {
	m := New("P", "M")
	m.AddPrimitive("A", Int(1))
	m.AddPrimitive("B", Int(2))
	m.AddPrimitive("A", Int(3))
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after replace", m.Len())
	}
	// Order must be preserved: A stays first.
	if m.Fields()[0].Label != "A" {
		t.Fatalf("first field = %q, want A", m.Fields()[0].Label)
	}
	f, _ := m.Field("A")
	if v, _ := f.Value.AsInt(); v != 3 {
		t.Fatalf("A = %d, want 3", v)
	}
}

func TestStructuredFieldPath(t *testing.T) {
	m := New("SSDP", "SSDPResponse")
	loc := &Field{Label: "LOCATION", Children: []*Field{
		{Label: "protocol", Value: Str("http")},
		{Label: "address", Value: Str("10.0.0.2")},
		{Label: "port", Value: Int(5431)},
		{Label: "resource", Value: Str("/desc.xml")},
	}}
	m.Add(loc)

	f, ok := m.Path("LOCATION.port")
	if !ok {
		t.Fatal("LOCATION.port not found")
	}
	if v, _ := f.Value.AsInt(); v != 5431 {
		t.Errorf("port = %d, want 5431", v)
	}
	if !loc.IsStructured() {
		t.Error("LOCATION should be structured")
	}
	if _, ok := m.Path("LOCATION.nope"); ok {
		t.Error("bogus child found")
	}
	if _, ok := m.Path("NOPE.port"); ok {
		t.Error("bogus root found")
	}
}

func TestSetPathCreatesNested(t *testing.T) {
	m := New("P", "M")
	m.SetPath("URL.port", Int(80))
	f, ok := m.Path("URL.port")
	if !ok {
		t.Fatal("URL.port missing after SetPath")
	}
	if v, _ := f.Value.AsInt(); v != 80 {
		t.Fatalf("port = %d", v)
	}
	// Overwrite through SetPath.
	m.SetPath("URL.port", Int(8080))
	f, _ = m.Path("URL.port")
	if v, _ := f.Value.AsInt(); v != 8080 {
		t.Fatalf("port after overwrite = %d", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New("P", "M")
	m.AddPrimitive("A", Int(1))
	m.Add(&Field{Label: "S", Children: []*Field{{Label: "x", Value: Str("v")}}})
	cp := m.Clone()
	if !m.Equal(cp) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone must not affect the original.
	f, _ := cp.Path("S.x")
	f.Value = Str("changed")
	orig, _ := m.Path("S.x")
	if s, _ := orig.Value.AsString(); s != "v" {
		t.Fatal("clone aliases original")
	}
}

func TestMessageEqual(t *testing.T) {
	a := New("P", "M")
	a.AddPrimitive("A", Int(1))
	b := New("P", "M")
	b.AddPrimitive("A", Int(1))
	if !a.Equal(b) {
		t.Fatal("equal messages reported unequal")
	}
	b.AddPrimitive("B", Int(2))
	if a.Equal(b) {
		t.Fatal("different lengths reported equal")
	}
	c := New("P", "Other")
	c.AddPrimitive("A", Int(1))
	if a.Equal(c) {
		t.Fatal("different names reported equal")
	}
}

func TestStringRendering(t *testing.T) {
	m := New("SLP", "Req")
	m.AddPrimitive("XID", Int(5))
	m.Add(&Field{Label: "U", Children: []*Field{{Label: "p", Value: Int(80)}}})
	got := m.String()
	want := "SLP/Req{XID=5, U[p=80]}"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestLabelsSorted(t *testing.T) {
	m := New("P", "M")
	m.AddPrimitive("Z", Int(1))
	m.AddPrimitive("A", Int(2))
	got := m.Labels()
	if len(got) != 2 || got[0] != "A" || got[1] != "Z" {
		t.Fatalf("Labels = %v", got)
	}
}

// Property: Clone always produces an Equal message, for arbitrary
// generated field sets.
func TestQuickCloneEqual(t *testing.T) {
	f := func(labels []string, ints []int64) bool {
		m := New("P", "M")
		for i, l := range labels {
			if l == "" {
				l = "empty"
			}
			var v Value
			if i < len(ints) {
				v = Int(ints[i])
			} else {
				v = Str(l)
			}
			m.AddPrimitive(l, v)
		}
		return m.Equal(m.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Value Text/Equal are consistent for integers.
func TestQuickIntValueRoundtrip(t *testing.T) {
	f := func(v int64) bool {
		val := Int(v)
		got, ok := val.AsInt()
		return ok && got == v && val.Equal(Int(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A field lives as long as the message that made it: one a repeated
// label displaces stays valid until the message's Release, which zeroes
// every field the message made, added or not.
func TestFieldsLiveWithTheirMessage(t *testing.T) {
	m := NewPooled("SSDP", "SSDPResponse")
	first := m.AddPrimitive("ST", Str("urn:a"))
	m.AddPrimitive("ST", Str("urn:b"))
	loose := m.NewField("unadded", Int(7))
	url := m.AddPrimitive("URL", Value{})
	for i := 0; i < 2*fieldBlockLen; i++ {
		url.Children = append(url.Children, m.NewField(strconv.Itoa(i), Int(int64(i))))
	}
	if first.Value.Text() != "urn:a" || loose.Value.Text() != "7" {
		t.Fatalf("a displaced or unadded field changed before Release: %v, %v", first.Value, loose.Value)
	}
	if f, _ := m.Field("ST"); f.Value.Text() != "urn:b" || m.Len() != 2 {
		t.Fatalf("message = %v", m)
	}
	m.Release()
	for _, f := range []*Field{first, loose, url} {
		if f.Label != "" || f.Value.IsValid() || f.Children != nil {
			t.Errorf("Release left a field as %+v", *f)
		}
	}
}
