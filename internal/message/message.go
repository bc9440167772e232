// Package message implements Starlink's abstract message representation
// (paper §III-A). A network message, once parsed, becomes a protocol
// independent tree of labelled fields. Primitive fields carry a value;
// structured fields carry child primitive fields (for example a URL
// field splits into protocol, address, port and resource). A field's
// type, width and mandatory flag are facts of its MDL definition, not
// of the message: a field holds only what the wire said.
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
//   - A message comes from the pool (NewPooled) and goes back to it
//     through Release, which its owner calls exactly once, after which
//     the message and every field in it are invalid. On the bridge data
//     path the engine owns every message: it draws one per parse
//     (parser.ParseInto fills it) and per send, and releases it in one
//     of three places — where the ingest job carrying it ends, at the
//     cleanup of the session whose history adopted it, or beside the
//     draw of a send that failed — counting both sides in its message
//     balance. Parser.Parse is the one other owner: it releases the
//     message a failed parse leaves.
//   - A field belongs to the message that made it (Message.NewField)
//     and lives as long as it does: the message takes its fields from
//     blocks drawn from one pool, and its Release zeroes the blocks and
//     puts them back. A field a repeated label displaces stays in its
//     block until then. Fields built as plain literals (tests) may be
//     mixed in freely; Release leaves them to the garbage collector.
//   - A message definition has one Layout, fixed when its model loads. A
//     message bound to it (SetLayout) keeps a slot→position array, so
//     parsers and composers address fields by slot (At, SetAt) and never
//     look a label up. The label API (Field, Path, SetPath, Add)
//     is a view over the same fields, kept in insertion order.
//   - A value that is not a number is a string: a parsed one is a
//     substring of the received message's one copy, bytes included, so
//     reading it (AsString, BytesView, AppendText) never copies.
//   - Path and SetPath split dotted paths ("LOCATION.port") at most
//     once and delegate to PathParts/SetPathParts; callers resolving the
//     same path repeatedly can pre-split it with SplitPath and use the
//     parts forms directly.
package message

import (
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
// Values are immutable once created. A number (an integer, or a boolean
// as 1 or 0) is held in i; a string or a byte string in s.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns a Value holding an integer.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Str returns a Value holding a string.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a Value holding the byte string v.
func Bytes(v string) Value { return Value{kind: KindBytes, s: v} }

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

// BytesView returns the bytes content as the string that holds it,
// without copying; ok is false if the kind differs.
func (v Value) BytesView() (string, bool) { return v.s, v.kind == KindBytes }

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
		return string(appendHex(make([]byte, 0, 2*len(v.s)), v.s))
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
		return appendHex(dst, v.s)
	case KindBool:
		if v.i != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return dst
	}
}

// appendHex appends the lower-case hex encoding of s to dst.
func appendHex(dst []byte, s string) []byte {
	const digits = "0123456789abcdef"
	for i := 0; i < len(s); i++ {
		dst = append(dst, digits[s[i]>>4], digits[s[i]&0x0f])
	}
	return dst
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt, KindBool:
		return v.i == o.i
	case KindString, KindBytes:
		return v.s == o.s
	default:
		return true
	}
}

// Field is one field of an abstract message (paper §III-A). A primitive
// field has a Label and a Value; a structured field has non-nil
// Children and no Value of its own. The field's MDL type, wire width
// and mandatory flag are its definition's (mdl.Entry, mdl.MessageDef).
type Field struct {
	// Label names the field, e.g. "XID" or "ST".
	Label string
	// Value is the content of a primitive field.
	Value Value
	// Children are the sub-fields of a structured field. A field with a
	// non-nil Children slice is structured even if the slice is empty.
	Children []*Field
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

// Equal reports deep equality of two fields.
func (f *Field) Equal(o *Field) bool {
	if f.Label != o.Label {
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

// Slot returns the slot of label, or -1; a nil layout has none.
func (l *Layout) Slot(label string) int {
	if l == nil {
		return -1
	}
	return slices.Index(l.labels, label)
}

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
	// blocks hold the fields NewField made; the last has free unused.
	blocks []*fieldBlock
	free   int
	// kids holds the child slices NewChildren carved, back to back.
	kids   []*Field
	pooled bool
}

// fieldBlockLen is how many fields a message takes from the pool at a
// time: a parked session holds its messages' partly used blocks.
const fieldBlockLen = 4

type fieldBlock [fieldBlockLen]Field

var (
	messagePool = sync.Pool{New: func() any { return new(Message) }}
	blockPool   = sync.Pool{New: func() any { return new(fieldBlock) }}
)

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

// NewField returns a field of m holding label and v. It is valid until
// m's Release, whether or not it is added to m.
func (m *Message) NewField(label string, v Value) *Field {
	if m.free == 0 {
		m.blocks = append(m.blocks, blockPool.Get().(*fieldBlock))
		m.free = fieldBlockLen
	}
	f := &m.blocks[len(m.blocks)-1][fieldBlockLen-m.free]
	m.free--
	f.Label, f.Value = label, v
	return f
}

// NewChildren returns an empty child slice of capacity n for a field
// of m, carved from an array m keeps across Release, so a pooled
// message explodes its structured fields without allocating. Appending
// beyond n moves the slice to an array of its own.
func (m *Message) NewChildren(n int) []*Field {
	k := len(m.kids)
	if cap(m.kids)-k < n {
		m.kids = make([]*Field, 0, max(2*cap(m.kids), n, 8))
		k = 0
	}
	m.kids = m.kids[:k+n]
	return m.kids[k : k : k+n]
}

// Release returns the message and the fields it made to the pools. The
// caller must hold the last reference: after Release the message and
// its fields are invalid. Safe to call on messages built with New as
// well — their blocks feed the pool.
func (m *Message) Release() {
	for _, b := range m.blocks {
		*b = fieldBlock{}
		blockPool.Put(b)
	}
	// Hold no pointer into a block the pool may free.
	clear(m.blocks)
	clear(m.fields)
	clear(m.kids)
	pooled, fields, pos, blocks, kids := m.pooled, m.fields[:0], m.pos[:0], m.blocks[:0], m.kids[:0]
	*m = Message{}
	if pooled {
		// Keep the field, slot, block and child arrays' capacity for the
		// next user.
		m.fields, m.pos, m.blocks, m.kids = fields, pos, blocks, kids
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

// SetAt is Add by slot: f, labelled as the slot is, takes the place of
// the slot's field or is appended.
func (m *Message) SetAt(slot int, f *Field) {
	if p := m.pos[slot]; p > 0 {
		m.fields[p-1] = f
		return
	}
	m.fields = append(m.fields, f)
	m.pos[slot] = int32(len(m.fields))
}

// Add appends a field. Adding a field whose label already exists replaces
// the previous field in place (labels are unique within a message).
func (m *Message) Add(f *Field) {
	for i, g := range m.fields {
		if g.Label == f.Label {
			m.fields[i] = f
			return
		}
	}
	m.Put(-1, m.layout.Slot(f.Label), f)
}

// Put is Add for a caller that has looked the label up itself: at is
// the position in Fields of the field labelled as f is, -1 when there is
// none, and slot the label's slot in the bound layout, -1 when it has
// none.
func (m *Message) Put(at, slot int, f *Field) {
	if at >= 0 {
		m.fields[at] = f
		return
	}
	m.fields = append(m.fields, f)
	if slot >= 0 {
		m.pos[slot] = int32(len(m.fields))
	}
}

// AddPrimitive adds a primitive field of m and returns it.
func (m *Message) AddPrimitive(label string, v Value) *Field {
	f := m.NewField(label, v)
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
// path, creating missing components as primitives.
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
		f = m.NewField(label, v)
		m.Add(f)
	}
	f.Value = v
	return f
}

// SetPathParts is SetPath over a precompiled (pre-split) dotted path.
func (m *Message) SetPathParts(parts []string, v Value) *Field {
	f, ok := m.Field(parts[0])
	if !ok {
		f = m.NewField(parts[0], Value{})
		m.Add(f)
	}
	for _, p := range parts[1:] {
		c, ok := f.Child(p)
		if !ok {
			c = m.NewField(p, Value{})
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

// Clone returns a deep copy of the message, drawn from the pool like
// NewPooled's.
func (m *Message) Clone() *Message {
	cp := NewPooled(m.Protocol, m.Name)
	for _, f := range m.fields {
		cp.Add(cp.clone(f))
	}
	return cp
}

// clone returns a deep copy of f made of m's fields.
func (m *Message) clone(f *Field) *Field {
	cp := m.NewField(f.Label, f.Value)
	if f.Children != nil {
		cp.Children = make([]*Field, len(f.Children))
		for i, c := range f.Children {
			cp.Children[i] = m.clone(c)
		}
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
