// Package message implements Starlink's abstract message representation
// (paper §III-A). A network message, once parsed, becomes a protocol
// independent tree of labelled, typed fields. Primitive fields carry a
// value; structured fields carry child primitive fields (for example a
// URL field splits into protocol, address, port and resource).
//
// Abstract messages are the interface between the Starlink framework and
// the underlying network messages: parsers produce them, the automata
// engine manipulates them, and composers serialise them back to the wire.
//
// # Allocation discipline
//
// The bridge data path builds and discards one message tree per packet,
// so the package keeps that traffic off the garbage collector:
//
//   - Every field the data path builds comes from the pool (NewField),
//     and so does every message (NewPooled); both return to it through
//     Release. Release is strictly owner-driven: whoever holds the last
//     reference to a tree calls it exactly once, after which every node,
//     value and BytesView aliasing it is invalid. Trees built with New /
//     plain literals (tests) may be mixed in freely — Release feeds every
//     node back to the pools regardless of origin.
//   - A message definition has one Layout, fixed when its model loads. A
//     message bound to it (SetLayout) keeps a slot→position array, so
//     parsers and composers address fields by slot (At, SetAt) and never
//     look a label up. The label API (Field, Path, SetPath, Add, Swap)
//     is a view over the same fields, kept in insertion order.
//   - Value.BytesView and Value.AppendText are the non-copying siblings
//     of AsBytes and Text, for callers that only read transiently.
//   - Path and SetPath split dotted paths ("LOCATION.port") at most
//     once and delegate to PathParts/SetPathParts; callers resolving the
//     same path repeatedly can pre-split it with SplitPath and use the
//     parts forms directly.
package message

import (
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the dynamic types a primitive field value can carry.
type Kind int

// Value kinds. Starting at 1 so the zero Kind is invalid and detectable.
const (
	KindInvalid Kind = iota
	KindInt
	KindString
	KindBytes
	KindBool
)

// String returns the human readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is the content of a primitive field. The zero Value is invalid.
// Values are immutable once created. A boolean is held in i, 1 or 0, so
// that a Field fits the 128-byte size class.
type Value struct {
	kind Kind
	i    int64
	s    string
	b    []byte
}

// Int returns a Value holding an integer.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Str returns a Value holding a string.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a Value holding a byte slice. The slice is copied so the
// Value cannot alias caller-owned memory.
func Bytes(v []byte) Value {
	cp := make([]byte, len(v))
	copy(cp, v)
	return Value{kind: KindBytes, b: cp}
}

// Bool returns a Value holding a boolean.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds content.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer content; ok is false if the kind differs.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsString returns the string content; ok is false if the kind differs.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBytes returns a copy of the bytes content; ok is false if the kind differs.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	cp := make([]byte, len(v.b))
	copy(cp, v.b)
	return cp, true
}

// BytesView returns the bytes content without copying; ok is false if
// the kind differs. The returned slice aliases the Value's backing
// store: it must not be mutated, and it is invalid once the owning
// message is Released. Use AsBytes when the bytes outlive the message.
func (v Value) BytesView() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return v.b, true
}

// AsBool returns the boolean content; ok is false if the kind differs.
func (v Value) AsBool() (bool, bool) { return v.i != 0, v.kind == KindBool }

// Text renders the value as a string regardless of kind. Integers render
// in decimal, bytes in hex. Used by rules, translation functions and
// diagnostics.
func (v Value) Text() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	case KindBytes:
		return hex.EncodeToString(v.b)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// AppendText appends the Text rendering of the value to dst and returns
// the extended slice — the allocation-free sibling of Text for callers
// that already own a buffer.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindString:
		return append(dst, v.s...)
	case KindBytes:
		return hex.AppendEncode(dst, v.b)
	case KindBool:
		if v.i != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return dst
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt, KindBool:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	case KindBytes:
		return string(v.b) == string(o.b)
	default:
		return true
	}
}

// Field is one field of an abstract message (paper §III-A). A primitive
// field has Label, Type, Length (in bits; 0 when variable) and Value. A
// structured field has non-nil Children and no Value of its own.
type Field struct {
	// Label names the field, e.g. "XID" or "ST".
	Label string
	// Type is the MDL type name of the content, e.g. "Integer" or "URL".
	Type string
	// Length is the wire length of the field in bits; 0 means variable.
	Length int
	// Mandatory marks fields that participate in the semantic
	// equivalence operator |= (paper eq. 1, Mfields).
	Mandatory bool
	// Value is the content of a primitive field.
	Value Value
	// Children are the sub-fields of a structured field. A field with a
	// non-nil Children slice is structured even if the slice is empty.
	Children []*Field
}

var fieldPool = sync.Pool{New: func() any { return new(Field) }}

// NewField returns a zeroed Field from the pool. Fields added to a
// message are returned to the pool by the message's Release.
func NewField() *Field { return fieldPool.Get().(*Field) }

// Release resets the field tree and returns every node to the pool.
// The caller must hold the only reference; for fields inside a message
// use the message's Release instead.
func (f *Field) Release() {
	for _, c := range f.Children {
		c.Release()
	}
	*f = Field{}
	fieldPool.Put(f)
}

// IsStructured reports whether f is a structured field.
func (f *Field) IsStructured() bool { return f.Children != nil }

// Child returns the direct child field with the given label.
func (f *Field) Child(label string) (*Field, bool) {
	for _, c := range f.Children {
		if c.Label == label {
			return c, true
		}
	}
	return nil, false
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	cp := NewField()
	cp.Label, cp.Type, cp.Length, cp.Mandatory, cp.Value = f.Label, f.Type, f.Length, f.Mandatory, f.Value
	if f.Value.kind == KindBytes {
		// One copy of the backing bytes so the clone cannot alias f.
		cp.Value = Bytes(f.Value.b)
	}
	if f.Children != nil {
		cp.Children = make([]*Field, len(f.Children))
		for i, c := range f.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Equal reports deep equality of two fields.
func (f *Field) Equal(o *Field) bool {
	if f.Label != o.Label || f.Type != o.Type || f.Length != o.Length || f.Mandatory != o.Mandatory {
		return false
	}
	if (f.Children == nil) != (o.Children == nil) {
		return false
	}
	if f.Children == nil {
		return f.Value.Equal(o.Value)
	}
	if len(f.Children) != len(o.Children) {
		return false
	}
	for i := range f.Children {
		if !f.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Layout is the slot table of one message definition: slot i holds the
// field labelled Labels()[i]. A layout that extends another keeps its
// slots, so a message moves from the one to the other without losing a
// field — a parser fills the header every definition of a spec shares
// before it knows which definition it parses. Immutable once built.
type Layout struct {
	base   *Layout
	labels []string
}

// NewLayout returns the layout of labels, in slot order.
func NewLayout(labels ...string) *Layout { return &Layout{labels: labels} }

// Extend returns a layout of l's slots followed by labels.
func (l *Layout) Extend(labels ...string) *Layout {
	return &Layout{base: l, labels: append(slices.Clip(l.labels), labels...)}
}

// Labels returns the labels in slot order; callers must not mutate it.
func (l *Layout) Labels() []string { return l.labels }

// Slot returns the slot of label, or -1.
func (l *Layout) Slot(label string) int { return slices.Index(l.labels, label) }

// Message is an abstract message: a named, ordered set of fields
// belonging to a protocol. The paper writes msg.field for field
// selection; that is the Field / Path methods here.
type Message struct {
	// Protocol is the owning protocol, e.g. "SLP".
	Protocol string
	// Name identifies the message type within the protocol,
	// e.g. "SLPSrvRequest".
	Name   string
	fields []*Field
	// layout, when bound, is the definition's slot table, and pos maps
	// each of its slots to 1 + the position of the slot's field in
	// fields (0 while the slot is unset).
	layout *Layout
	pos    []int32
	pooled bool
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// New creates an empty abstract message.
func New(protocol, name string) *Message {
	return &Message{Protocol: protocol, Name: name}
}

// NewPooled creates an empty abstract message drawn from the pool.
// Call Release when the tree is no longer referenced to recycle the
// message, its fields and its internals.
func NewPooled(protocol, name string) *Message {
	m := messagePool.Get().(*Message)
	m.Protocol, m.Name, m.pooled = protocol, name, true
	return m
}

// Release returns the message and every field in it to the pools. The
// caller must hold the last reference: after Release the message, its
// fields, and any BytesView obtained from them are invalid. Safe to
// call on messages built with New as well — their nodes feed the pools.
func (m *Message) Release() {
	for _, f := range m.fields {
		f.Release()
	}
	pooled, fields, pos := m.pooled, m.fields[:0], m.pos[:0]
	*m = Message{}
	if pooled {
		// Keep the field and slot arrays' capacity for the next user.
		m.fields, m.pos = fields, pos
		messagePool.Put(m)
	}
}

// Layout returns the layout the message is bound to, nil when none.
func (m *Message) Layout() *Layout { return m.layout }

// SetLayout binds the message to l, so that At and SetAt address its
// fields by slot. Fields keep their slots when l extends the bound
// layout and are found by label otherwise; a field whose label l lacks
// stays reachable by label only.
func (m *Message) SetLayout(l *Layout) {
	keep := 0
	if m.layout != nil && l.base == m.layout {
		keep = len(m.pos)
	}
	m.pos = append(m.pos[:keep], make([]int32, len(l.labels)-keep)...)
	if keep == 0 {
		for i, f := range m.fields {
			if s := l.Slot(f.Label); s >= 0 {
				m.pos[s] = int32(i + 1)
			}
		}
	}
	m.layout = l
}

// At returns the field in slot of the bound layout, nil while unset.
func (m *Message) At(slot int) *Field {
	if p := m.pos[slot]; p > 0 {
		return m.fields[p-1]
	}
	return nil
}

// SetAt is Swap by slot: f, labelled as the slot is, takes the place of
// the slot's field, which it returns, or is appended.
func (m *Message) SetAt(slot int, f *Field) *Field {
	if p := m.pos[slot]; p > 0 {
		old := m.fields[p-1]
		m.fields[p-1] = f
		return old
	}
	m.fields = append(m.fields, f)
	m.pos[slot] = int32(len(m.fields))
	return nil
}

// Add appends a field. Adding a field whose label already exists replaces
// the previous field in place (labels are unique within a message). The
// displaced field, if any, is left to the garbage collector — callers
// that know they hold its only reference should use Swap and Release it.
func (m *Message) Add(f *Field) { m.Swap(f) }

// Swap is Add returning the field the insertion displaced (nil when the
// label was new). Owners that built the displaced field from the pool
// can hand it back with Release.
func (m *Message) Swap(f *Field) *Field {
	for i, g := range m.fields {
		if g.Label == f.Label {
			m.fields[i] = f
			return g
		}
	}
	m.fields = append(m.fields, f)
	if m.layout != nil {
		if s := m.layout.Slot(f.Label); s >= 0 {
			m.pos[s] = int32(len(m.fields))
		}
	}
	return nil
}

// AddPrimitive adds a pooled primitive field and returns it.
func (m *Message) AddPrimitive(label, typ string, v Value) *Field {
	f := NewField()
	f.Label, f.Type, f.Value = label, typ, v
	m.Add(f)
	return f
}

// Field returns the top-level field with the given label.
func (m *Message) Field(label string) (*Field, bool) {
	for _, f := range m.fields {
		if f.Label == label {
			return f, true
		}
	}
	return nil, false
}

// Fields returns the fields in insertion order. The returned slice must
// not be mutated by callers; fields themselves may be.
func (m *Message) Fields() []*Field { return m.fields }

// Len returns the number of top-level fields.
func (m *Message) Len() int { return len(m.fields) }

// SplitPath splits a dotted path once, for reuse with PathParts and
// SetPathParts. Precompile paths that are resolved repeatedly; the
// split result is immutable and safe to share between goroutines.
func SplitPath(path string) []string { return strings.Split(path, ".") }

// Path selects a (possibly nested) field by dot-separated labels, the
// msg.field operation of §III-A: "LOCATION.port" selects the primitive
// port inside the structured LOCATION field.
func (m *Message) Path(path string) (*Field, bool) {
	if !strings.Contains(path, ".") {
		return m.Field(path)
	}
	return m.PathParts(strings.Split(path, "."))
}

// PathParts is Path over a precompiled (pre-split) dotted path. It does
// no parsing or allocation.
func (m *Message) PathParts(parts []string) (*Field, bool) {
	f, ok := m.Field(parts[0])
	if !ok {
		return nil, false
	}
	for _, p := range parts[1:] {
		f, ok = f.Child(p)
		if !ok {
			return nil, false
		}
	}
	return f, true
}

// SetPath assigns a value to the (possibly nested) primitive field at
// path, creating missing components as untyped primitives.
func (m *Message) SetPath(path string, v Value) *Field {
	if !strings.Contains(path, ".") {
		return m.setTop(path, v)
	}
	return m.SetPathParts(strings.Split(path, "."), v)
}

// setTop assigns a value to a top-level field, creating it if missing.
func (m *Message) setTop(label string, v Value) *Field {
	f, ok := m.Field(label)
	if !ok {
		f = NewField()
		f.Label = label
		m.Add(f)
	}
	f.Value = v
	return f
}

// SetPathParts is SetPath over a precompiled (pre-split) dotted path.
func (m *Message) SetPathParts(parts []string, v Value) *Field {
	f, ok := m.Field(parts[0])
	if !ok {
		f = NewField()
		f.Label = parts[0]
		m.Add(f)
	}
	for _, p := range parts[1:] {
		c, ok := f.Child(p)
		if !ok {
			c = NewField()
			c.Label = p
			if f.Children == nil {
				f.Children = []*Field{}
			}
			f.Children = append(f.Children, c)
		}
		f = c
	}
	f.Value = v
	return f
}

// MandatoryFields returns the labels of mandatory top-level fields —
// Mfields(n) in the paper's equivalence operator (eq. 1).
func (m *Message) MandatoryFields() []string {
	var out []string
	for _, f := range m.fields {
		if f.Mandatory {
			out = append(out, f.Label)
		}
	}
	return out
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	cp := New(m.Protocol, m.Name)
	for _, f := range m.fields {
		cp.Add(f.Clone())
	}
	return cp
}

// Equal reports deep equality (same protocol, name, fields and order).
func (m *Message) Equal(o *Message) bool {
	if m.Protocol != o.Protocol || m.Name != o.Name || len(m.fields) != len(o.fields) {
		return false
	}
	for i := range m.fields {
		if !m.fields[i].Equal(o.fields[i]) {
			return false
		}
	}
	return true
}

// String renders a compact single-line description for diagnostics.
func (m *Message) String() string {
	var b strings.Builder
	b.WriteString(m.Protocol)
	b.WriteByte('/')
	b.WriteString(m.Name)
	b.WriteByte('{')
	for i, f := range m.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		writeField(&b, f)
	}
	b.WriteString("}")
	return b.String()
}

func writeField(b *strings.Builder, f *Field) {
	if f.IsStructured() {
		b.WriteString(f.Label)
		b.WriteByte('[')
		for i, c := range f.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			writeField(b, c)
		}
		b.WriteString("]")
		return
	}
	b.WriteString(f.Label)
	b.WriteByte('=')
	b.WriteString(f.Value.Text())
}

// Labels returns the sorted labels of the top-level fields; useful in
// tests and error messages.
func (m *Message) Labels() []string {
	out := make([]string, 0, len(m.fields))
	for _, f := range m.fields {
		out = append(out, f.Label)
	}
	sort.Strings(out)
	return out
}
