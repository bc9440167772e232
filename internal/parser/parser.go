// Package parser implements Starlink's runtime-generated message
// parsers (paper §IV-A). A Parser is a generic interpreter specialised
// by an MDL specification: feeding it the bytes of a legacy protocol
// message yields the protocol-independent abstract message
// representation of §III-A. No protocol-specific code is compiled —
// loading a different MDL re-specialises the same interpreter.
package parser

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"starlink/internal/bitio"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/types"
)

// newField builds a pooled primitive field. The field joins its
// message's pool lifetime: the message's Release recycles it.
//
//starlink:returns-pooled
func newField(label, typ string, length int, v message.Value) *message.Field {
	f := message.NewField()
	f.Label, f.Type, f.Length, f.Value = label, typ, length, v
	return f
}

// maxTextFields bounds a text message's header lines plus XML leaves:
// each label is looked up among the fields before it, so without a
// bound parse time is quadratic in the size. Shipped stacks send ≤ 12.
const maxTextFields = 256

var errTooManyFields = fmt.Errorf("more than %d header lines and XML leaves", maxTextFields)

// wire is a received message and, once a field needs it, its one string
// copy s: every decoded value that is not a number is a substring of s.
type wire struct {
	data []byte
	s    string
}

// str returns bytes [i, j) of the copy, making it on first use.
func (w *wire) str(i, j int) string {
	if i == j {
		return ""
	}
	if len(w.s) < len(w.data) {
		w.s = string(w.data)
	}
	return w.s[i:j]
}

// of returns the substring of the copy that b spans. b must be a
// subslice of data, so its offset is cap(data) - cap(b).
func (w *wire) of(b []byte) string {
	i := cap(w.data) - cap(b)
	return w.str(i, i+len(b))
}

// read returns the n bytes at r's position and moves r past them: a
// substring of the copy, or a copy of their own at an unaligned bit
// position (no shipped MDL has one).
func (w *wire) read(r *bitio.Reader, n int) (string, error) {
	if !r.Aligned() || n > r.Remaining()/8 {
		raw, err := r.ReadBytes(n)
		return string(raw), err
	}
	start := r.Pos() / 8
	return w.str(start, start+n), r.Skip(n * 8)
}

// Parser turns wire bytes into abstract messages under an MDL spec.
type Parser struct {
	spec *mdl.Spec
	r    *mdl.Resolved
	// rules locates each plan's rule field, for Classify.
	rules []ruleField
}

// ruleField is where one plan's rule field sits in the header (see
// mdl.Spec.RuleField), resolved once: the entry and its index; in the
// binary dialect its bit offset and width, in the text one the
// delimiters that end it and each header field before it. mode is how
// Classify reads it.
type ruleField struct {
	pl        *mdl.Plan
	e         *mdl.Entry
	at        int
	bit, bits int
	delims    [][]byte
	mode      ruleMode
}

// ruleMode is how Classify reads a rule field: as an integer, as its
// bytes (a String field), or as the value its marshaller decodes.
type ruleMode uint8

const (
	byValue ruleMode = iota
	byInt
	byBytes
)

// New returns a parser for the given specification. A nil registry uses
// the built-in types.
func New(spec *mdl.Spec, reg *types.Registry) (*Parser, error) {
	if spec == nil {
		return nil, fmt.Errorf("parser: nil spec")
	}
	if reg == nil {
		reg = types.NewRegistry()
	}
	p := &Parser{spec: spec, r: spec.Resolve(reg)}
	for _, pl := range p.r.Plans {
		at, bit, err := spec.RuleField(pl.Def.Rule.Field)
		if err != nil {
			return nil, fmt.Errorf("parser: %s message %s: %w", spec.Protocol, pl.Def.Name, err)
		}
		e := p.r.Shared.Header[at]
		rf := ruleField{pl: pl, e: e, at: at, bit: bit, bits: e.Def.SizeBits}
		if spec.Dialect == mdl.DialectText {
			for _, f := range spec.Header.Fields[:at+1] {
				rf.delims = append(rf.delims, f.Delim)
			}
		}
		_, str := e.M.(types.StringMarshaller)
		switch {
		case e.M != nil && e.Kind == message.KindInt && (rf.delims != nil || rf.bits <= 64):
			rf.mode = byInt
		case str:
			rf.mode = byBytes
		}
		p.rules = append(p.rules, rf)
	}
	return p, nil
}

// HeaderKind returns the value kind of a label every message carries
// in its header (mdl.Spec.InHeader), else KindInvalid.
func (p *Parser) HeaderKind(label string) message.Kind {
	if i := p.r.Shared.Layout.Slot(label); i >= 0 && p.spec.InHeader(label) {
		return p.r.Shared.Slots[i].Kind
	}
	return message.KindInvalid
}

// Spec returns the MDL specification the parser interprets.
func (p *Parser) Spec() *mdl.Spec { return p.spec }

// Parse decodes one complete wire message into an abstract message.
// The returned message comes from the message pool, is bound to its
// definition's layout and never aliases data; callers that fully
// consume it may hand it back with Release.
func (p *Parser) Parse(data []byte) (*message.Message, error) {
	switch p.spec.Dialect {
	case mdl.DialectBinary:
		return p.parseBinary(data)
	case mdl.DialectText:
		return p.parseText(data)
	default:
		return nil, fmt.Errorf("parser: spec %s has invalid dialect", p.spec.Protocol)
	}
}

// Classify names the message data holds as Parse would select it — the
// first definition whose rule its rule field meets — without parsing:
// it skips the header fields before the rule field and reads that field
// in place. ok is false wherever Parse fails to select a definition; the
// rest of the message is not checked, so a named message may still fail
// to parse. Integer and String rule fields cost no allocation.
//
//starlink:hotpath
func (p *Parser) Classify(data []byte) (name string, ok bool) {
	last := -1
	var n int64
	var raw []byte
	var v message.Value
	for i := range p.rules {
		rf := &p.rules[i]
		if rf.at != last {
			switch rf.mode {
			case byInt:
				n, ok = rf.readInt(data)
			case byBytes:
				raw, ok = rf.read(data)
			default:
				v, ok = rf.readValue(data)
			}
			if !ok {
				return "", false
			}
			last = rf.at
		}
		switch {
		case rf.mode == byInt && rf.pl.MatchesInt(n),
			rf.mode == byBytes && string(raw) == rf.pl.Def.Rule.Value,
			rf.mode == byValue && rf.pl.Matches(v):
			return rf.pl.Def.Name, true
		}
	}
	return "", false
}

// read returns the field's bytes in data: in the text dialect the token
// before its delimiter, in the binary one its whole bytes. ok is false
// where Parse fails to read them.
func (rf *ruleField) read(data []byte) (raw []byte, ok bool) {
	if rf.delims != nil {
		for _, d := range rf.delims {
			i := bytes.Index(data, d)
			if i < 0 {
				return nil, false
			}
			raw, data = data[:i], data[i+len(d):]
		}
		return raw, true
	}
	if rf.bits%8 != 0 || len(data)*8 < rf.bit+rf.bits {
		return nil, false
	}
	if rf.bit%8 == 0 {
		return data[rf.bit/8 : rf.bit/8+rf.bits/8], true
	}
	var r bitio.Reader
	r.Init(data)
	_ = r.Skip(rf.bit)
	raw, _ = r.ReadBytes(rf.bits / 8)
	return raw, true
}

// readInt reads the field as Parse decodes an integer: its bits in the
// binary dialect, its decimal token in the text one.
func (rf *ruleField) readInt(data []byte) (int64, bool) {
	if rf.delims != nil {
		raw, ok := rf.read(data)
		if !ok {
			return 0, false
		}
		n, err := parseIntBytes(raw)
		return n, err == nil
	}
	if len(data)*8 < rf.bit+rf.bits {
		return 0, false
	}
	var r bitio.Reader
	r.Init(data)
	_ = r.Skip(rf.bit)
	n, _ := r.ReadBits(rf.bits)
	return int64(n), true
}

// readValue decodes any other field as Parse does: a binary boolean from
// its bits, the rest through the field's marshaller. ok is false where
// Parse fails on it.
func (rf *ruleField) readValue(data []byte) (v message.Value, ok bool) {
	e := rf.e
	if e.M == nil {
		return v, false
	}
	if rf.delims == nil && e.Kind == message.KindBool && rf.bits <= 64 {
		n, ok := rf.readInt(data)
		return message.Bool(n != 0), ok
	}
	raw, ok := rf.read(data)
	if !ok {
		return v, false
	}
	v, err := e.M.Unmarshal(string(raw), rf.bits)
	return v, err == nil
}

// plan picks the first definition whose rule the parsed header meets.
func (p *Parser) plan(msg *message.Message) (*mdl.Plan, error) {
	for _, pl := range p.r.Plans {
		if pl.RuleSlot < 0 {
			continue
		}
		if f := msg.At(pl.RuleSlot); f != nil && pl.Matches(f.Value) {
			msg.Name = pl.Def.Name
			msg.SetLayout(pl.Layout)
			return pl, nil
		}
	}
	return nil, fmt.Errorf("mdl: no message rule matched for protocol %s", p.spec.Protocol)
}

// add stores a parsed field: in its slot, by label when it has none, or
// as the next child of a repeat-group item. A field it displaces (a
// repeated label) was the parser's and is recycled.
func add(msg *message.Message, into *message.Field, e *mdl.Entry, f *message.Field) {
	var old *message.Field
	switch {
	case into != nil:
		into.Children = append(into.Children, f)
	case e.Slot < 0:
		old = msg.Swap(f)
	default:
		old = msg.SetAt(e.Slot, f)
	}
	if old != nil {
		old.Release()
	}
}

// ---------------------------------------------------------------------
// Binary dialect
// ---------------------------------------------------------------------

func (p *Parser) parseBinary(data []byte) (*message.Message, error) {
	var r bitio.Reader
	r.Init(data)
	w := wire{data: data}
	msg := message.NewPooled(p.spec.Protocol, "")
	msg.SetLayout(p.r.Shared.Layout)
	if err := parseBinaryFields(&r, &w, p.r.Shared.Header, msg, nil); err != nil {
		msg.Release()
		return nil, fmt.Errorf("parser: %s header: %w", p.spec.Protocol, err)
	}
	pl, err := p.plan(msg)
	if err != nil {
		msg.Release()
		return nil, err
	}
	if err := parseBinaryFields(&r, &w, pl.Body, msg, nil); err != nil {
		msg.Release()
		return nil, fmt.Errorf("parser: %s %s body: %w", p.spec.Protocol, pl.Def.Name, err)
	}
	markMandatory(msg, pl.Def)
	return msg, nil
}

// sizeOf returns the integer the size or count field e names holds.
func sizeOf(msg *message.Message, into *message.Field, e *mdl.Entry) (int64, error) {
	f := e.Ref.Find(msg, into)
	if f == nil {
		return 0, fmt.Errorf("size/count field %q not yet parsed", e.Ref.Label)
	}
	v, ok := f.Value.AsInt()
	if !ok {
		return 0, fmt.Errorf("size/count field %q is not an integer", e.Ref.Label)
	}
	return v, nil
}

// parseBinaryFields parses a field list. When into is non-nil the
// decoded fields are appended as its children (repeat-group items);
// otherwise they are added to msg.
func parseBinaryFields(r *bitio.Reader, w *wire, entries []*mdl.Entry, msg *message.Message, into *message.Field) error {
	for _, e := range entries {
		def := e.Def
		if def.IsGroup() {
			n, err := sizeOf(msg, into, e)
			if err != nil {
				return err
			}
			if n < 0 || n > 1<<16 {
				return fmt.Errorf("group %q count %d out of range", def.Label, n)
			}
			group := message.NewField()
			group.Label, group.Type, group.Children = def.Label, "Group", []*message.Field{}
			for i := int64(0); i < n; i++ {
				item := message.NewField()
				item.Label, item.Type, item.Children = strconv.FormatInt(i, 10), "GroupItem", []*message.Field{}
				if err := parseBinaryFields(r, w, e.Group, msg, item); err != nil {
					// Neither the partial item nor the group (with the
					// items parsed so far) ever reaches the message;
					// recycle both or the pool shrinks on malformed
					// input.
					item.Release()
					group.Release()
					return fmt.Errorf("group %q item %d: %w", def.Label, i, err)
				}
				group.Children = append(group.Children, item)
			}
			add(msg, into, e, group)
			continue
		}
		if e.M == nil {
			return fmt.Errorf("field %q: %w", def.Label, e.Err)
		}

		var f *message.Field
		var err error
		switch {
		case def.SizeBits > 0:
			f, err = parseFixed(r, w, e)
		case def.SizeRef != "":
			n, lerr := sizeOf(msg, into, e)
			if lerr != nil {
				return lerr
			}
			if n < 0 {
				return fmt.Errorf("field %q: negative length %d", def.Label, n)
			}
			src, rerr := w.read(r, int(n))
			if rerr != nil {
				return fmt.Errorf("field %q: %w", def.Label, rerr)
			}
			f, err = unmarshal(e, src, 0)
		case def.Rest:
			if !r.Aligned() {
				return fmt.Errorf("field %q: rest at unaligned bit position %d", def.Label, r.Pos())
			}
			src, _ := w.read(r, r.Remaining()/8)
			f, err = unmarshal(e, src, 0)
		default:
			// Self-delimiting type (FQDN): decode from the remaining
			// bytes and skip the consumed amount.
			if !r.Aligned() {
				return fmt.Errorf("field %q: self-delimiting field at unaligned position", def.Label)
			}
			if e.Type.TypeName != "FQDN" {
				return fmt.Errorf("field %q: type %q is not self-delimiting", def.Label, e.Type.TypeName)
			}
			name, n, derr := types.DecodeFQDN(w.str(r.Pos()/8, len(w.data)))
			if derr != nil {
				return fmt.Errorf("field %q: %w", def.Label, derr)
			}
			if serr := r.Skip(n * 8); serr != nil {
				return fmt.Errorf("field %q: %w", def.Label, serr)
			}
			f = newField(def.Label, e.Type.TypeName, 0, message.Str(name))
		}
		if err != nil {
			return err
		}
		add(msg, into, e, f)
	}
	return nil
}

// parseFixed reads a fixed-width field.
//
//starlink:returns-pooled
func parseFixed(r *bitio.Reader, w *wire, e *mdl.Entry) (*message.Field, error) {
	bits := e.Def.SizeBits
	if (e.Kind == message.KindInt || e.Kind == message.KindBool) && bits <= 64 {
		v, err := r.ReadBits(bits)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", e.Label, err)
		}
		val := message.Int(int64(v))
		if e.Kind == message.KindBool {
			val = message.Bool(v != 0)
		}
		return newField(e.Label, e.Type.TypeName, bits, val), nil
	}
	if bits%8 != 0 {
		return nil, fmt.Errorf("field %q: non-integer type with unaligned width %d", e.Label, bits)
	}
	src, err := w.read(r, bits/8)
	if err != nil {
		return nil, fmt.Errorf("field %q: %w", e.Label, err)
	}
	return unmarshal(e, src, bits)
}

// unmarshal decodes a field's content, a substring of the message's
// copy, into a message field.
//
//starlink:returns-pooled
func unmarshal(e *mdl.Entry, src string, bits int) (*message.Field, error) {
	v, err := e.M.Unmarshal(src, bits)
	if err != nil {
		return nil, fmt.Errorf("field %q: %w", e.Label, err)
	}
	return build(e, e.Label, bits, v)
}

// build makes the pooled field holding v, exploding a structured type.
//
//starlink:returns-pooled
func build(e *mdl.Entry, label string, bits int, v message.Value) (*message.Field, error) {
	f := newField(label, e.Type.TypeName, bits, v)
	if sm, ok := e.M.(types.StructuredMarshaller); ok {
		children, err := sm.Explode(v)
		if err != nil {
			f.Release()
			return nil, fmt.Errorf("field %q: %w", label, err)
		}
		f.Children = children
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Text dialect
// ---------------------------------------------------------------------

func (p *Parser) parseText(data []byte) (*message.Message, error) {
	msg := message.NewPooled(p.spec.Protocol, "")
	msg.SetLayout(p.r.Shared.Layout)
	w := wire{data: data}
	rest := data
	var err error
	for _, e := range p.r.Shared.Header {
		if e.Def.Wildcard {
			rest, err = p.parseWildcard(rest, e.Def, msg, &w)
			if err != nil {
				msg.Release()
				return nil, fmt.Errorf("parser: %s wildcard: %w", p.spec.Protocol, err)
			}
			continue
		}
		var token []byte
		token, rest, err = cutDelim(rest, e.Def.Delim)
		if err != nil {
			msg.Release()
			return nil, fmt.Errorf("parser: %s field %q: %w", p.spec.Protocol, e.Label, err)
		}
		f, err := textField(e, e.Label, token, &w)
		if err != nil {
			msg.Release()
			return nil, fmt.Errorf("parser: %s: %w", p.spec.Protocol, err)
		}
		add(msg, nil, e, f)
	}
	pl, err := p.plan(msg)
	if err != nil {
		msg.Release()
		return nil, err
	}
	switch pl.Def.Body {
	case mdl.BodyRaw:
		msg.Add(newField("Body", "Bytes", 0, message.Bytes(rest)))
	case mdl.BodyXML:
		// The leaves and Body are substrings of the copy; the composer
		// writes a String body back verbatim.
		text := w.of(rest)
		if err := flattenXMLBody(rest, text, msg); err != nil {
			msg.Release()
			return nil, fmt.Errorf("parser: %s xml body: %w", p.spec.Protocol, err)
		}
		msg.Add(newField("Body", "String", 0, message.Str(text)))
	case mdl.BodyNone:
		// Trailing bytes after the blank line are ignored (some stacks
		// pad datagrams).
	}
	markMandatory(msg, pl.Def)
	return msg, nil
}

// parseWildcard consumes label:value lines until the empty line that
// must end them. A label the spec types takes its slot — and its
// string from the layout; any other is a String found by label.
func (p *Parser) parseWildcard(data []byte, def *mdl.FieldDef, msg *message.Message, w *wire) (rest []byte, err error) {
	rest = data
	for {
		if len(rest) == 0 {
			// The datagram ended at a line boundary with no empty line: a
			// header block that lost its tail, not a complete message.
			return nil, fmt.Errorf("header block not terminated by an empty line")
		}
		if bytes.HasPrefix(rest, def.Delim) {
			return rest[len(def.Delim):], nil
		}
		var line []byte
		line, rest, err = cutDelim(rest, def.Delim)
		if err != nil {
			return nil, err
		}
		i := bytes.IndexByte(line, def.InnerSplit)
		if i < 0 {
			return nil, fmt.Errorf("line %q has no %q separator", line, string(def.InnerSplit))
		}
		name := bytes.TrimSpace(line[:i])
		if len(name) == 0 {
			return nil, fmt.Errorf("line %q has empty label", line)
		}
		e := p.r.Untyped
		for _, s := range p.r.Shared.Slots {
			if s.Label == string(name) {
				e = s
				break
			}
		}
		if e.Def != nil {
			// A line may not restate a positional field: the rule read
			// from the first line is the one that selects the message.
			return nil, fmt.Errorf("line %q names the header field %q", line, e.Label)
		}
		label := e.Label
		if e.Slot < 0 {
			label = w.of(name)
		}
		f, ferr := textField(e, label, bytes.TrimSpace(line[i+1:]), w)
		if ferr != nil {
			return nil, ferr
		}
		add(msg, nil, e, f)
		if msg.Len() > maxTextFields {
			return nil, errTooManyFields
		}
	}
}

// textField builds an abstract field from a text token, a subslice of
// w's data: an integer is parsed in place, anything else unmarshalled
// from the token's substring of the copy.
//
//starlink:returns-pooled
func textField(e *mdl.Entry, label string, token []byte, w *wire) (*message.Field, error) {
	if e.M == nil {
		return nil, fmt.Errorf("field %q: %w", label, e.Err)
	}
	var v message.Value
	if e.Kind == message.KindInt {
		// Text integers arrive as decimal strings, parsed in place.
		n, err := parseIntBytes(token)
		if err != nil {
			return nil, fmt.Errorf("field %q: %q is not an integer", label, token)
		}
		v = message.Int(n)
	} else {
		var err error
		v, err = e.M.Unmarshal(w.of(token), 0)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", label, err)
		}
	}
	return build(e, label, 0, v)
}

// errNotInteger is parseIntBytes' one error: a value, so that Classify
// builds none.
var errNotInteger = errors.New("parser: not a decimal int64")

// parseIntBytes is strconv.ParseInt(string(b), 10, 64) over a borrowed
// byte slice, without the string conversion; leading/trailing ASCII
// space is tolerated the way the strings.TrimSpace form was. The full
// int64 range is representable, matching strconv exactly.
func parseIntBytes(b []byte) (int64, error) {
	b = bytes.TrimSpace(b)
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, errNotInteger
	}
	// Accumulate unsigned against the sign-dependent cutoff so both
	// MaxInt64 and MinInt64 parse exactly.
	cutoff := uint64(1<<63 - 1)
	if neg {
		cutoff = 1 << 63
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errNotInteger
		}
		d := uint64(c - '0')
		if n > (cutoff-d)/10 {
			return 0, errNotInteger
		}
		n = n*10 + d
	}
	if neg {
		// n <= 1<<63 here; two's-complement negation yields MinInt64
		// for the n == 1<<63 boundary.
		return -int64(n), nil
	}
	return int64(n), nil
}

// cutDelim splits data at the first occurrence of delim.
func cutDelim(data, delim []byte) (token, rest []byte, err error) {
	i := bytes.Index(data, delim)
	if i < 0 {
		return nil, nil, fmt.Errorf("delimiter %v not found in %q", delim, truncate(data))
	}
	return data[:i], data[i+len(delim):], nil
}

func truncate(b []byte) string {
	if len(b) > 48 {
		return string(b[:48]) + "..."
	}
	return string(b)
}

func markMandatory(msg *message.Message, def *mdl.MessageDef) {
	for _, l := range def.Mandatory {
		if f, ok := msg.Field(l); ok {
			f.Mandatory = true
		}
	}
}
