package message

import (
	"testing"
	"unsafe"
)

// The message layer sits on the per-packet fast path; these tests pin
// its allocation behaviour so regressions fail loudly instead of
// showing up as GC pressure under load.

func TestValueTextAllocs(t *testing.T) {
	cases := map[string]struct {
		v    Value
		want float64
	}{
		// Small-integer and string renders are allocation free; large
		// integers pay the result string; bytes pay the hex buffer +
		// string (AppendText is the zero-alloc form).
		"int-small": {Int(7), 0},
		"string":    {Str("service:printer"), 0},
		"bool":      {Bool(true), 0},
		"int-large": {Int(1234567), 1},
		"bytes":     {Bytes("\xde\xad"), 2},
	}
	for name, tc := range cases {
		if got := testing.AllocsPerRun(100, func() { _ = tc.v.Text() }); got > tc.want {
			t.Errorf("%s: Text allocates %.1f per run, want <= %.0f", name, got, tc.want)
		}
	}
}

func TestValueAppendTextAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for name, v := range map[string]Value{
		"int":    Int(1234567890),
		"string": Str("urn:printer"),
		"bytes":  Bytes("\x01\x02\x03\x04"),
		"bool":   Bool(false),
	} {
		if got := testing.AllocsPerRun(100, func() { _ = v.AppendText(buf[:0]) }); got != 0 {
			t.Errorf("%s: AppendText allocates %.1f per run, want 0", name, got)
		}
	}
}

func TestValueAppendTextMatchesText(t *testing.T) {
	for _, v := range []Value{Int(-42), Int(0), Int(99), Int(1 << 40), Str("x"), Str(""),
		Bytes(""), Bytes("\x00\xff\x5a"), Bool(true), Bool(false), {}} {
		if got, want := string(v.AppendText(nil)), v.Text(); got != want {
			t.Errorf("AppendText = %q, Text = %q", got, want)
		}
	}
}

// A bytes value is held as a string, like a string value: a parsed one
// is a substring of the message's one copy, and BytesView returns that
// very string.
func TestBytesViewAliasesWithoutCopy(t *testing.T) {
	wire := "\x00\x01\x02\x03\x04"
	v := Bytes(wire[1:4])
	view, ok := v.BytesView()
	if !ok || view != "\x01\x02\x03" {
		t.Fatalf("BytesView = %q, %v", view, ok)
	}
	if unsafe.StringData(view) != unsafe.StringData(wire[1:]) {
		t.Error("BytesView must return the substring it was given, not a copy")
	}
	if got := testing.AllocsPerRun(100, func() { v.BytesView() }); got != 0 {
		t.Errorf("BytesView allocates %.1f per run, want 0", got)
	}
	if _, ok := Str("x").BytesView(); ok {
		t.Error("BytesView on a string value must report not-ok")
	}
}

// nestedMessage builds LOCATION{address, port} plus filler fields on
// both sides of the index threshold.
func nestedMessage(extra int) *Message {
	m := New("SSDP", "SSDPResponse")
	m.Add(&Field{Label: "LOCATION", Children: []*Field{
		{Label: "address", Value: Str("10.0.0.7")},
		{Label: "port", Value: Int(5431)},
	}})
	for i := 0; i < extra; i++ {
		m.AddPrimitive("filler"+string(rune('A'+i)), Str("x"))
	}
	return m
}

func TestPathPartsAllocs(t *testing.T) {
	parts := SplitPath("LOCATION.port")
	for _, extra := range []int{0, 12} { // linear-scan and map-indexed forms
		m := nestedMessage(extra)
		f, ok := m.PathParts(parts)
		if !ok {
			t.Fatal("PathParts failed")
		}
		if v, _ := f.Value.AsInt(); v != 5431 {
			t.Fatalf("port = %v", f.Value)
		}
		if got := testing.AllocsPerRun(100, func() { m.PathParts(parts) }); got != 0 {
			t.Errorf("extra=%d: PathParts allocates %.1f per run, want 0", extra, got)
		}
	}
}

func TestSetPathPartsAllocs(t *testing.T) {
	parts := SplitPath("LOCATION.port")
	for _, extra := range []int{0, 12} {
		m := nestedMessage(extra)
		// Existing target: pure overwrite must not allocate.
		if got := testing.AllocsPerRun(100, func() { m.SetPathParts(parts, Int(99)) }); got != 0 {
			t.Errorf("extra=%d: SetPathParts allocates %.1f per run, want 0", extra, got)
		}
		if f, _ := m.PathParts(parts); f.Value.Text() != "99" {
			t.Errorf("extra=%d: SetPathParts did not write", extra)
		}
	}
}

func TestPathMatchesPathParts(t *testing.T) {
	m := nestedMessage(0)
	f1, ok1 := m.Path("LOCATION.port")
	f2, ok2 := m.PathParts(SplitPath("LOCATION.port"))
	if ok1 != ok2 || f1 != f2 {
		t.Errorf("Path and PathParts disagree: %v/%v vs %v/%v", f1, ok1, f2, ok2)
	}
	if _, ok := m.Path("LOCATION.missing"); ok {
		t.Error("missing nested path must not resolve")
	}
}

func TestAddReplacesInPlaceAcrossIndexForms(t *testing.T) {
	for _, extra := range []int{0, 12} {
		m := nestedMessage(extra)
		m.AddPrimitive("ST", Str("urn:a"))
		before := m.Len()
		m.AddPrimitive("ST", Str("urn:b"))
		if m.Len() != before {
			t.Fatalf("extra=%d: replace grew the message", extra)
		}
		f, _ := m.Field("ST")
		if f.Value.Text() != "urn:b" {
			t.Errorf("extra=%d: replace kept the old field", extra)
		}
		// Order preserved: replaced field stays at its position.
		pos := -1
		for i, g := range m.Fields() {
			if g.Label == "ST" {
				pos = i
			}
		}
		if pos != before-1 {
			t.Errorf("extra=%d: replaced field moved to %d", extra, pos)
		}
	}
}

func TestPooledMessageReuse(t *testing.T) {
	m := NewPooled("SLP", "SLPSrvRequest")
	m.AddPrimitive("XID", Int(42))
	m.Add(&Field{Label: "URL", Children: []*Field{{Label: "port", Value: Int(1)}}})
	m.Release()
	m2 := NewPooled("SSDP", "SSDPMSearch")
	if m2.Len() != 0 || m2.Protocol != "SSDP" || m2.Name != "SSDPMSearch" {
		t.Fatalf("reused message not reset: %v", m2)
	}
	if _, ok := m2.Field("XID"); ok {
		t.Error("reused message leaked a field from its previous life")
	}
	m2.Release()
}

// A field is a label and a value: its MDL type, width and mandatory flag
// are its definition's, so a field fits Go's 80-byte size class.
func TestFieldSize(t *testing.T) {
	if got := unsafe.Sizeof(Field{}); got > 80 {
		t.Errorf("unsafe.Sizeof(Field{}) = %d, want <= 80", got)
	}
}
