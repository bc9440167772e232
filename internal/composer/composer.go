// Package composer implements Starlink's runtime-generated message
// composers (paper §IV-A): the inverse of package parser. A Composer is
// specialised by an MDL specification and serialises abstract messages
// back to the legacy protocol's wire format.
//
// Field values "may become available at different times, making it
// difficult to predict the message size and layout" (§III-A) — length
// and count fields are therefore computed by the composer itself:
//
//   - fields whose MDL type carries a function (Integer[f-length(X)],
//     f-totallength, f-count) are reserved on the first pass and patched
//     once the full encoding is known;
//   - fields referenced as a SizeRef/CountRef by a later field are
//     derived from the measured encoding, so callers never hand-compute
//     lengths.
package composer

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"starlink/internal/bitio"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/types"
)

// Composer serialises abstract messages under an MDL spec.
type Composer struct {
	spec  *mdl.Spec
	funcs *types.FuncRegistry
	r     *mdl.Resolved
}

// New returns a composer for the specification. Nil registries use the
// built-ins.
func New(spec *mdl.Spec, reg *types.Registry, funcs *types.FuncRegistry) (*Composer, error) {
	if spec == nil {
		return nil, fmt.Errorf("composer: nil spec")
	}
	if reg == nil {
		reg = types.NewRegistry()
	}
	if funcs == nil {
		funcs = types.NewFuncRegistry()
	}
	return &Composer{spec: spec, funcs: funcs, r: spec.Resolve(reg)}, nil
}

// Spec returns the MDL specification the composer interprets.
func (c *Composer) Spec() *mdl.Spec { return c.spec }

// Compose serialises msg into a new slice: AppendCompose(nil, msg).
func (c *Composer) Compose(msg *message.Message) ([]byte, error) {
	return c.AppendCompose(nil, msg)
}

// AppendCompose serialises msg, appends the wire to dst and returns the
// extended slice (dst itself on error). The message's Name selects the
// message definition, whose layout msg is bound to; the definition's
// fixed values, its rule among them, fill the fields msg leaves unset,
// so callers (and translation logic) never restate a protocol's
// constants. The wire is assembled in a pooled buffer and copied once,
// into dst: a caller that reuses dst composes without allocating.
func (c *Composer) AppendCompose(dst []byte, msg *message.Message) ([]byte, error) {
	var pl *mdl.Plan
	for _, p := range c.r.Plans {
		if p.Def.Name == msg.Name {
			pl = p
			break
		}
	}
	if pl == nil {
		return dst, fmt.Errorf("composer: spec %s has no message %q", c.spec.Protocol, msg.Name)
	}
	if msg.Layout() != pl.Layout {
		msg.SetLayout(pl.Layout)
	}
	for _, e := range pl.Fixed {
		if msg.At(e.Slot) == nil {
			msg.SetAt(e.Slot, msg.NewField(e.Label, e.Fixed))
		}
	}
	switch c.spec.Dialect {
	case mdl.DialectBinary:
		return c.composeBinary(dst, msg, pl)
	case mdl.DialectText:
		return c.composeText(dst, msg, pl)
	default:
		return dst, fmt.Errorf("composer: spec %s has invalid dialect", c.spec.Protocol)
	}
}

// ---------------------------------------------------------------------
// Binary dialect
// ---------------------------------------------------------------------

// patch records a function field whose value is computed after the
// first pass.
type patch struct {
	bitOff int
	e      *mdl.Entry
}

// encoded is a memoized variable-width encoding, arena[start:end]; ok
// marks it computed.
type encoded struct {
	start, end int
	ok         bool
}

type binaryCtx struct {
	msg     *message.Message
	plan    *mdl.Plan
	w       *bitio.Writer
	patches []patch
	// enc memoizes variable-width field encodings by slot within one
	// compose: size fields measure their owned field before it is
	// written, and f-length patches measure it after, so every variable
	// field would otherwise be encoded twice.
	enc []encoded
	// arena holds every encoding of one compose, appended by the
	// marshallers; it is pooled with the context.
	arena []byte
}

// encode returns the variable-width encoding of a top-level field,
// memoized for the duration of one compose.
func (b *binaryCtx) encode(e *mdl.Entry, f *message.Field) ([]byte, error) {
	if e.Slot >= 0 && b.enc[e.Slot].ok {
		x := b.enc[e.Slot]
		return b.arena[x.start:x.end], nil
	}
	start := len(b.arena)
	raw, err := b.marshal(e, f, 0)
	if err == nil && e.Slot >= 0 {
		b.enc[e.Slot] = encoded{start, len(b.arena), true}
	}
	return raw, err
}

// marshal appends a field's encoding to the arena and returns it,
// imploding a structured field first. The slice stays valid for the
// compose: the arena only grows.
func (b *binaryCtx) marshal(e *mdl.Entry, f *message.Field, bits int) ([]byte, error) {
	v, err := implode(e, e.Label, f)
	if err != nil {
		return nil, err
	}
	start := len(b.arena)
	if b.arena, err = e.M.AppendMarshal(b.arena, v, bits); err != nil {
		return nil, fmt.Errorf("field %q: %w", e.Label, err)
	}
	return b.arena[start:], nil
}

// EncodedLength implements types.FuncContext.
func (b *binaryCtx) EncodedLength(label string) (int, error) {
	i := b.plan.Layout.Slot(label)
	if i < 0 || b.msg.At(i) == nil {
		// Unset measured fields (and labels the definition lacks) encode
		// as empty.
		return 0, nil
	}
	raw, err := b.encode(b.plan.Slots[i], b.msg.At(i))
	if err != nil {
		return 0, err
	}
	return len(raw), nil
}

// TotalLength implements types.FuncContext.
func (b *binaryCtx) TotalLength() (int, error) { return (b.w.Len() + 7) / 8, nil }

// FieldValue implements types.FuncContext.
func (b *binaryCtx) FieldValue(label string) (message.Value, error) {
	f, ok := b.msg.Field(label)
	if !ok {
		return message.Value{}, fmt.Errorf("composer: f-value: no field %q", label)
	}
	return f.Value, nil
}

// Count implements types.FuncContext.
func (b *binaryCtx) Count(label string) (int, error) {
	f, ok := b.msg.Field(label)
	if !ok {
		return 0, nil
	}
	if !f.IsStructured() {
		return 0, fmt.Errorf("composer: f-count: field %q is not a group", label)
	}
	return len(f.Children), nil
}

var binCtxPool = sync.Pool{New: func() any { return new(binaryCtx) }}

func acquireBinaryCtx(msg *message.Message, pl *mdl.Plan) *binaryCtx {
	ctx := binCtxPool.Get().(*binaryCtx)
	ctx.msg, ctx.plan, ctx.w = msg, pl, bitio.AcquireWriter()
	ctx.enc = append(ctx.enc[:0], make([]encoded, len(pl.Slots))...)
	return ctx
}

func releaseBinaryCtx(ctx *binaryCtx) {
	bitio.ReleaseWriter(ctx.w)
	clear(ctx.enc)
	*ctx = binaryCtx{patches: ctx.patches[:0], enc: ctx.enc[:0], arena: ctx.arena[:0]}
	binCtxPool.Put(ctx)
}

func (c *Composer) composeBinary(dst []byte, msg *message.Message, pl *mdl.Plan) ([]byte, error) {
	ctx := acquireBinaryCtx(msg, pl)
	defer releaseBinaryCtx(ctx)

	if err := c.writeFields(ctx, pl.Header, msg, nil); err != nil {
		return dst, fmt.Errorf("composer: %s header: %w", c.spec.Protocol, err)
	}
	if err := c.writeFields(ctx, pl.Body, msg, nil); err != nil {
		return dst, fmt.Errorf("composer: %s %s body: %w", c.spec.Protocol, pl.Def.Name, err)
	}
	// Second pass: evaluate function fields now that the layout is known.
	for _, p := range ctx.patches {
		fn, err := c.funcs.Lookup(p.e.Type.Func.Name)
		if err != nil {
			return dst, fmt.Errorf("composer: field %q: %w", p.e.Label, err)
		}
		v, err := fn(ctx, p.e.Type.Func.Args)
		if err != nil {
			return dst, fmt.Errorf("composer: field %q: %w", p.e.Label, err)
		}
		n, ok := v.AsInt()
		if !ok {
			return dst, fmt.Errorf("composer: field %q: function result is not an integer", p.e.Label)
		}
		if err := ctx.w.PatchBits(p.bitOff, uint64(n), p.e.Def.SizeBits); err != nil {
			return dst, fmt.Errorf("composer: field %q: %w", p.e.Label, err)
		}
		setInt(msg, p.e, n)
	}
	return ctx.w.AppendBytes(dst), nil
}

// setInt records a derived integer in the message, so that
// parse(compose(m)) == m for function, size and count fields too.
func setInt(msg *message.Message, e *mdl.Entry, n int64) {
	var f *message.Field
	if e.Slot < 0 {
		f = msg.SetPath(e.Label, message.Int(n))
	} else if f = msg.At(e.Slot); f == nil {
		f = msg.NewField(e.Label, message.Value{})
		msg.SetAt(e.Slot, f)
	}
	f.Value = message.Int(n)
}

// writeFields serialises a field list; group items pass their item
// field as scope for label lookups.
func (c *Composer) writeFields(ctx *binaryCtx, entries []*mdl.Entry, msg *message.Message, scope *message.Field) error {
	for _, e := range entries {
		def := e.Def
		if def.IsGroup() {
			g := e.Find(msg, scope)
			if g == nil || !g.IsStructured() {
				// Absent group composes as empty (count field will be 0).
				continue
			}
			for i, item := range g.Children {
				if err := c.writeFields(ctx, e.Group, msg, item); err != nil {
					return fmt.Errorf("group %q item %d: %w", def.Label, i, err)
				}
			}
			continue
		}

		// Function fields: reserve and patch later.
		if e.Type.Func != nil {
			if def.SizeBits <= 0 || def.SizeBits > 64 {
				return fmt.Errorf("field %q: function fields need fixed width <=64 bits", def.Label)
			}
			ctx.patches = append(ctx.patches, patch{bitOff: ctx.w.Len(), e: e})
			if err := ctx.w.WriteBits(0, def.SizeBits); err != nil {
				return err
			}
			continue
		}

		// Derived size/count fields: measured from the owned field — at
		// the top level, or a sibling inside a group item.
		if o := e.Owner; o != nil {
			n := 0
			if f := o.Find(msg, scope); f != nil && e.Counts {
				if f.IsStructured() {
					n = len(f.Children)
				}
			} else if f != nil {
				raw, err := ctx.encode(o, f)
				if err != nil {
					return err
				}
				n = len(raw)
			}
			if err := c.writeIntField(ctx, msg, scope, e, int64(n)); err != nil {
				return err
			}
			continue
		}

		f := e.Find(msg, scope)
		if f == nil {
			// Unset fields the definition does not fix compose as
			// zeroes; a group item's is composed for that item alone.
			f = msg.NewField(def.Label, zeroValue(e.Kind))
			if scope == nil {
				msg.SetAt(e.Slot, f)
			}
		}
		if err := c.writeField(ctx, e, f, scope == nil); err != nil {
			return err
		}
	}
	return nil
}

// writeIntField writes a derived integer and records it: in the group
// item scope, or at the top level (setInt).
func (c *Composer) writeIntField(ctx *binaryCtx, msg *message.Message, scope *message.Field, e *mdl.Entry, n int64) error {
	if e.Def.SizeBits <= 0 || e.Def.SizeBits > 64 {
		return fmt.Errorf("field %q: derived integer needs fixed width <=64 bits", e.Label)
	}
	if err := ctx.w.WriteBits(uint64(n), e.Def.SizeBits); err != nil {
		return fmt.Errorf("field %q: %w", e.Label, err)
	}
	if scope == nil {
		setInt(msg, e, n)
	} else if f, ok := scope.Child(e.Label); ok {
		f.Value = message.Int(n)
	} else {
		scope.Children = append(scope.Children, msg.NewField(e.Label, message.Int(n)))
	}
	return nil
}

// writeField serialises one field. cacheable marks top-level fields
// whose variable-width encoding may be shared with the measurement
// passes (group items repeat labels, so they must not hit the cache).
func (c *Composer) writeField(ctx *binaryCtx, e *mdl.Entry, f *message.Field, cacheable bool) error {
	def := e.Def
	if e.M == nil {
		return fmt.Errorf("field %q: %w", def.Label, e.Err)
	}
	if def.SizeBits > 0 && e.Kind == message.KindInt && def.SizeBits <= 64 {
		cv, err := coerceValue(f.Value, message.KindInt)
		if err != nil {
			return fmt.Errorf("field %q: %w", def.Label, err)
		}
		v, ok := cv.AsInt()
		if !ok {
			return fmt.Errorf("field %q: value %v is not an integer", def.Label, f.Value.Kind())
		}
		if v < 0 {
			return fmt.Errorf("field %q: negative value %d", def.Label, v)
		}
		if err := ctx.w.WriteBits(uint64(v), def.SizeBits); err != nil {
			return fmt.Errorf("field %q: %w", def.Label, err)
		}
		return nil
	}
	if def.SizeBits > 0 && e.Kind == message.KindBool && def.SizeBits <= 64 {
		v, _ := f.Value.AsBool()
		var n uint64
		if v {
			n = 1
		}
		if err := ctx.w.WriteBits(n, def.SizeBits); err != nil {
			return fmt.Errorf("field %q: %w", def.Label, err)
		}
		return nil
	}
	var raw []byte
	var err error
	if cacheable && def.SizeBits == 0 {
		raw, err = ctx.encode(e, f)
	} else {
		raw, err = ctx.marshal(e, f, def.SizeBits)
	}
	if err != nil {
		return err
	}
	if def.SizeBits > 0 && len(raw)*8 != def.SizeBits {
		return fmt.Errorf("field %q: encoded %d bits, field is %d", def.Label, len(raw)*8, def.SizeBits)
	}
	if err := ctx.w.WriteBytes(raw); err != nil {
		return fmt.Errorf("field %q: %w", def.Label, err)
	}
	return nil
}

// implode returns a field's primitive value: its Value, or for a
// structured field the value its type rebuilds from the children.
func implode(e *mdl.Entry, label string, f *message.Field) (message.Value, error) {
	if e.M == nil {
		return message.Value{}, fmt.Errorf("field %q: %w", label, e.Err)
	}
	if !f.IsStructured() {
		return f.Value, nil
	}
	sm, ok := e.M.(types.StructuredMarshaller)
	if !ok {
		return message.Value{}, fmt.Errorf("field %q: structured value but type %q cannot implode", label, e.Type.TypeName)
	}
	v, err := sm.Implode(f.Children)
	if err != nil {
		return message.Value{}, fmt.Errorf("field %q: %w", label, err)
	}
	return v, nil
}

// coerceValue converts between value kinds so translation constants
// (always strings) and cross-protocol copies compose cleanly: "12"
// becomes Int(12) for an Integer field, 12 becomes Str("12") for text.
func coerceValue(v message.Value, want message.Kind) (message.Value, error) {
	if v.Kind() == want {
		return v, nil
	}
	switch want {
	case message.KindInt:
		if s, ok := v.AsString(); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return message.Value{}, fmt.Errorf("cannot coerce %q to integer", s)
			}
			return message.Int(n), nil
		}
	case message.KindString:
		return message.Str(v.Text()), nil
	case message.KindBytes:
		if s, ok := v.AsString(); ok {
			return message.Bytes(s), nil
		}
	}
	return message.Value{}, fmt.Errorf("cannot coerce %v to %v", v.Kind(), want)
}

// zeroValue is what an unset field of the kind composes as.
func zeroValue(k message.Kind) message.Value {
	switch k {
	case message.KindInt:
		return message.Int(0)
	case message.KindBool:
		return message.Bool(false)
	case message.KindBytes:
		return message.Bytes("")
	default:
		return message.Str("")
	}
}

// ---------------------------------------------------------------------
// Text dialect
// ---------------------------------------------------------------------

var textBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (c *Composer) composeText(dst []byte, msg *message.Message, pl *mdl.Plan) ([]byte, error) {
	buf := textBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer textBufPool.Put(buf)
	var wildcard *mdl.FieldDef
	for _, e := range pl.Header {
		if e.Def.Wildcard {
			wildcard = e.Def
			continue
		}
		if f := msg.At(e.Slot); f != nil {
			if err := writeTextValue(buf, e, e.Label, f); err != nil {
				return dst, err
			}
		}
		buf.Write(e.Def.Delim)
	}
	if wildcard != nil {
		// Messages carrying a body need a Content-Length so stream
		// framers can delimit them; compute it when absent (the text
		// dialect's counterpart of the binary f-length mechanism).
		if pl.Def.Body != mdl.BodyNone {
			if _, has := msg.Field("Content-Length"); !has {
				if bf, ok := msg.Field("Body"); ok {
					n := 0
					if b, ok := bf.Value.BytesView(); ok {
						n = len(b)
					} else if s, ok := bf.Value.AsString(); ok {
						n = len(s)
					}
					msg.AddPrimitive("Content-Length", message.Int(int64(n)))
				}
			}
		}
		// Emit every field but the fixed header ones as a label<split>
		// value line, in message order for determinism (Body and
		// structured helpers excluded): the translation's, then the
		// definition's fixed values in document order.
	fields:
		for _, f := range msg.Fields() {
			if f.Label == "Body" {
				continue
			}
			e := c.r.Untyped
			for _, s := range pl.Slots {
				if msg.At(s.Slot) == f {
					if s.Slot < len(pl.Header) && !s.Def.Wildcard {
						continue fields
					}
					e = s
					break
				}
			}
			buf.WriteString(f.Label)
			buf.WriteByte(wildcard.InnerSplit)
			buf.WriteString(" ")
			if err := writeTextValue(buf, e, f.Label, f); err != nil {
				return dst, err
			}
			buf.Write(wildcard.Delim)
		}
		buf.Write(wildcard.Delim) // blank line terminates the field run
	}
	switch pl.Def.Body {
	case mdl.BodyRaw, mdl.BodyXML:
		if f, ok := msg.Field("Body"); ok {
			if b, ok := f.Value.BytesView(); ok {
				buf.WriteString(b)
			} else if s, ok := f.Value.AsString(); ok {
				buf.WriteString(s)
			}
		}
	case mdl.BodyNone:
	}
	// The buffer returns to the pool: its bytes are appended to dst.
	return append(dst, buf.Bytes()...), nil
}

// writeTextValue renders a field's text form straight into the compose
// buffer: primitive values append via Value.AppendText into the
// buffer's spare capacity, so integer headers (MX, Content-Length)
// render without an intermediate string.
func writeTextValue(buf *bytes.Buffer, e *mdl.Entry, label string, f *message.Field) error {
	v, err := implode(e, label, f)
	if err != nil {
		return err
	}
	buf.Write(v.AppendText(buf.AvailableBuffer()))
	return nil
}
