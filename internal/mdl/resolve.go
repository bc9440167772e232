package mdl

import (
	"maps"
	"slices"
	"strconv"

	"starlink/internal/message"
	"starlink/internal/types"
)

// Entry is one label of a message layout resolved against a type
// registry: what a parser or composer needs to handle the field, found
// once when they are built instead of per packet.
type Entry struct {
	Label string
	// Slot is the label's slot in the layout; -1 inside a repeat group.
	Slot int
	// Def lays the field out; nil for a label only the Types table names.
	Def  *FieldDef
	Type TypeDef
	// M marshals the field; when the registry lacks the type it is nil,
	// and Err is what parsing or composing a field of it returns.
	M    types.Marshaller
	Err  error
	Kind message.Kind
	// Ref is the entry of the field Def.SizeRef or Def.CountRef names.
	// Owner is, for a size field, the entry of the field it measures or,
	// when Counts, of the group whose items it counts.
	Ref, Owner *Entry
	Counts     bool
	Group      []*Entry
	// Fixed is the value the definition fixes the field to, in its kind
	// — its text when no value of the kind renders as it; zero if none.
	Fixed message.Value
}

// Find returns e's field in msg: inside the repeat-group item scope the
// child labelled e.Label if there is one, else the top-level field.
func (e *Entry) Find(msg *message.Message, scope *message.Field) *message.Field {
	if scope != nil {
		if f, ok := scope.Child(e.Label); ok {
			return f
		}
	}
	if e.Slot >= 0 {
		return msg.At(e.Slot)
	}
	f, _ := msg.Field(e.Label)
	return f
}

// Plan is one message definition resolved against a type registry.
type Plan struct {
	Def    *MessageDef
	Layout *message.Layout
	// Slots holds an entry per slot; Header and Body the entries of the
	// header's and the body's field definitions in wire order.
	Slots, Header, Body []*Entry
	// Fixed holds the entries of the fields the definition fixes, in
	// document order. The rule is one of them: RuleSlot is the slot of
	// the field it constrains (-1: none), and Rule its value.
	Fixed    []*Entry
	RuleSlot int
	Rule     message.Value
}

// Resolved is a spec resolved against a type registry.
type Resolved struct {
	Plans []*Plan
	// Shared is what every plan's layout starts with: the header's
	// labels, then those only the Types table names. It is what a parser
	// fills before it knows the definition.
	Shared Plan
	// Untyped resolves a label no layout has: a String, as in TypeOf.
	Untyped *Entry
}

// Resolve resolves every message definition of s against reg. A type
// reg lacks is not an error here: the entries using it carry the error.
func (s *Spec) Resolve(reg *types.Registry) *Resolved {
	var header []*FieldDef
	if s.Header != nil {
		header = s.Header.Fields
	}
	labels := make([]string, 0, len(header)+len(s.Types))
	for _, d := range header {
		labels = append(labels, d.Label)
	}
	for _, l := range slices.Sorted(maps.Keys(s.Types)) {
		if !slices.Contains(labels[:len(header)], l) {
			labels = append(labels, l)
		}
	}
	r := &Resolved{Untyped: s.entry(reg, "", -1)}
	r.Shared.Layout = message.NewLayout(labels...)
	s.plan(reg, &r.Shared, header)
	for _, def := range s.Messages {
		var extra []string
		for _, d := range def.Fields {
			if r.Shared.Layout.Slot(d.Label) < 0 && !slices.Contains(extra, d.Label) {
				extra = append(extra, d.Label)
			}
		}
		p := &Plan{Def: def, Layout: r.Shared.Layout.Extend(extra...)}
		s.plan(reg, p, header)
		sizes, counts := map[string]string{}, map[string]string{}
		indexOwners(append(slices.Clip(header), def.Fields...), sizes, counts)
		for _, e := range append(slices.Clip(p.Header), p.Body...) {
			if owned, ok := sizes[e.Label]; ok {
				e.Owner = s.top(reg, p, owned)
			} else if owned, ok := counts[e.Label]; ok {
				e.Owner, e.Counts = s.top(reg, p, owned), true
			}
		}
		p.RuleSlot, p.Rule = -1, message.Str(def.Rule.Value)
		for _, x := range def.Fixed {
			if i := p.Layout.Slot(x.Field); i >= 0 {
				e := p.Slots[i]
				e.Fixed, p.Fixed = typedRule(e.Kind, x.Value), append(p.Fixed, e)
				if x == def.Rule {
					p.RuleSlot, p.Rule = i, e.Fixed
				}
			}
		}
		r.Plans = append(r.Plans, p)
	}
	return r
}

// Matches reports whether v, the value of the rule's field, meets the
// rule: renders as its value — compared without rendering v when the
// kinds agree.
func (p *Plan) Matches(v message.Value) bool {
	if v.Kind() == p.Rule.Kind() {
		return v.Equal(p.Rule)
	}
	return v.Text() == p.Def.Rule.Value
}

// MatchesInt is Matches(message.Int(n)) without the value: an integer
// renders as the rule's value exactly when the rule holds that integer.
func (p *Plan) MatchesInt(n int64) bool {
	r, ok := p.Rule.AsInt()
	return ok && r == n
}

func typedRule(kind message.Kind, text string) message.Value {
	switch kind {
	case message.KindInt:
		if n, err := strconv.ParseInt(text, 10, 64); err == nil && strconv.FormatInt(n, 10) == text {
			return message.Int(n)
		}
	case message.KindBool:
		if text == "true" || text == "false" {
			return message.Bool(text == "true")
		}
	}
	return message.Str(text)
}

// plan builds p's entries: one per slot of its layout, the header's and
// (for a message definition) the body's field definitions set.
func (s *Spec) plan(reg *types.Registry, p *Plan, header []*FieldDef) {
	for i, label := range p.Layout.Labels() {
		p.Slots = append(p.Slots, s.entry(reg, label, i))
	}
	for i, d := range header {
		p.Header = append(p.Header, s.define(reg, p, p.Slots[i], d, nil))
	}
	if p.Def == nil {
		return
	}
	for _, d := range p.Def.Fields {
		e := p.Slots[p.Layout.Slot(d.Label)]
		if e.Def != nil { // a header label too
			e = s.entry(reg, d.Label, e.Slot)
		}
		p.Body = append(p.Body, s.define(reg, p, e, d, nil))
	}
}

func (s *Spec) entry(reg *types.Registry, label string, slot int) *Entry {
	e := &Entry{Label: label, Slot: slot, Type: s.TypeOf(label), Kind: message.KindString}
	if e.M, e.Err = reg.Lookup(e.Type.TypeName); e.M != nil {
		e.Kind = e.M.Kind()
	}
	return e
}

// define gives e its definition d and resolves d's size or count
// reference: to the first of siblings, the entries before it in its
// repeat group, so labelled, else to p's top level. A group's members
// get entries, a size member the sibling it measures as Owner.
func (s *Spec) define(reg *types.Registry, p *Plan, e *Entry, d *FieldDef, siblings []*Entry) *Entry {
	e.Def = d
	if ref := d.SizeRef + d.CountRef; ref != "" || d.IsGroup() { // at most one is set
		if i := slices.IndexFunc(siblings, func(o *Entry) bool { return o.Label == ref }); i >= 0 {
			e.Ref = siblings[i]
		} else {
			e.Ref = s.top(reg, p, ref)
		}
	}
	for _, m := range d.Group {
		e.Group = append(e.Group, s.define(reg, p, s.entry(reg, m.Label, -1), m, e.Group))
	}
	for _, m := range e.Group {
		if i := slices.IndexFunc(d.Group, func(o *FieldDef) bool { return o.SizeRef == m.Label }); i >= 0 {
			m.Owner = e.Group[i]
		}
	}
	return e
}

// top returns the entry of a top-level label of p.
func (s *Spec) top(reg *types.Registry, p *Plan, label string) *Entry {
	if i := p.Layout.Slot(label); i >= 0 {
		return p.Slots[i]
	}
	return s.entry(reg, label, -1)
}

// indexOwners maps each size field's label to the field it measures and
// each count field's label to the group it counts.
func indexOwners(defs []*FieldDef, sizes, counts map[string]string) {
	for _, d := range defs {
		if d.IsGroup() {
			counts[d.CountRef] = d.Label
			indexOwners(d.Group, sizes, counts)
			continue
		}
		if d.SizeRef != "" {
			sizes[d.SizeRef] = d.Label
		}
	}
}
