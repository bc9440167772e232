// Package mdl implements Starlink's Message Description Language
// (paper §IV-A). An MDL specification describes a protocol's wire
// format: the types of fields, the header layout, and per-message body
// layouts selected by rules over header fields. Generic parsers and
// composers (packages parser and composer) interpret MDL specs at
// runtime — this is how Starlink "generates" protocol-specific
// marshalling with no compilation step.
//
// Two dialects are supported, mirroring the paper:
//
//   - binary (Fig. 7): field sizes are bit counts, or references to a
//     previously-parsed integer field holding the size in bytes, or "*"
//     for the remaining tail. Self-delimiting types (FQDN) may use
//     size 0.
//   - text (Fig. 11): field "sizes" are delimiter byte lists
//     ("13,10" = CRLF, "32" = space); the special Fields entry
//     ("13,10:58") introduces a run of label:value lines with an inner
//     split byte.
//
// Extensions over the paper's figures, documented in DESIGN.md §2:
// repeat groups for counted sequences (<Repeat count=...>), mandatory
// field attribution used by the semantic-equivalence operator, fixed
// field values (<Fixed>Field=value</Fixed>, the rule one of them), and
// a body dialect attribute (none|raw|xml) for text messages that carry
// a payload (HTTP).
package mdl

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Dialect selects the wire syntax family of a protocol.
type Dialect int

// Supported dialects.
const (
	DialectInvalid Dialect = iota
	DialectBinary
	DialectText
)

// String returns the dialect name used in XML.
func (d Dialect) String() string {
	switch d {
	case DialectBinary:
		return "binary"
	case DialectText:
		return "text"
	default:
		return "invalid"
	}
}

// ParseDialect converts an XML attribute value to a Dialect.
func ParseDialect(s string) (Dialect, error) {
	switch s {
	case "binary":
		return DialectBinary, nil
	case "text":
		return DialectText, nil
	default:
		return DialectInvalid, fmt.Errorf("mdl: unknown dialect %q", s)
	}
}

// BodyKind describes how a text message's payload after the blank line
// is parsed.
type BodyKind int

// Supported body kinds for text messages.
const (
	BodyNone BodyKind = iota
	BodyRaw           // single Bytes field labelled "Body"
	BodyXML           // flatten XML leaves into String fields; "Body" keeps the text as a String
)

// ParseBodyKind converts the body attribute to a BodyKind.
func ParseBodyKind(s string) (BodyKind, error) {
	switch s {
	case "", "none":
		return BodyNone, nil
	case "raw":
		return BodyRaw, nil
	case "xml":
		return BodyXML, nil
	default:
		return BodyNone, fmt.Errorf("mdl: unknown body kind %q", s)
	}
}

// FuncRef is a parsed field function reference such as
// f-length(URLEntry) from Integer[f-length(URLEntry)].
type FuncRef struct {
	Name string
	Args []string
}

// TypeDef binds a field label to an MDL type, optionally with a function
// computing its value at composition time.
type TypeDef struct {
	Label    string
	TypeName string
	Func     *FuncRef
}

var typeRefRe = regexp.MustCompile(`^([A-Za-z][A-Za-z0-9]*)(?:\[([a-zA-Z-]+)\(([^)]*)\)\])?$`)

// ParseTypeRef parses the content of a <Types> entry:
// "Integer" or "Integer[f-length(URLEntry)]".
func ParseTypeRef(label, content string) (TypeDef, error) {
	m := typeRefRe.FindStringSubmatch(strings.TrimSpace(content))
	if m == nil {
		return TypeDef{}, fmt.Errorf("mdl: bad type reference %q for %q", content, label)
	}
	td := TypeDef{Label: label, TypeName: m[1]}
	if m[2] != "" {
		fr := &FuncRef{Name: m[2]}
		if args := strings.TrimSpace(m[3]); args != "" {
			for _, a := range strings.Split(args, ",") {
				fr.Args = append(fr.Args, strings.TrimSpace(a))
			}
		}
		td.Func = fr
	}
	return td, nil
}

// FieldDef describes one wire field of a header or message body.
type FieldDef struct {
	// Label names the field; must have a TypeDef in the spec.
	Label string

	// Binary dialect: exactly one of SizeBits / SizeRef / Rest is set
	// (or none, for self-delimiting types like FQDN).
	SizeBits int    // fixed width in bits
	SizeRef  string // label of a previously parsed integer field holding the byte length
	Rest     bool   // consumes the remaining bytes

	// Text dialect: the delimiter byte sequence terminating this field.
	Delim []byte
	// Text dialect, Fields wildcard only: the byte splitting label from
	// value inside each line (e.g. ':').
	InnerSplit byte
	// Wildcard marks the <Fields> entry that absorbs a run of
	// label:value lines until a blank line.
	Wildcard bool

	// Repeat group (binary): non-nil Group means this entry is a
	// counted sequence of sub-fields; CountRef names the integer field
	// holding the element count.
	Group    []*FieldDef
	CountRef string
}

// IsGroup reports whether the field is a repeat group.
func (f *FieldDef) IsGroup() bool { return f.Group != nil }

// Rule is a value a message definition fixes a field to. Its <Rule>
// relates the body to header content (paper: the special
// <Rule>FunctionID=1</Rule> label): a message is the first definition
// whose rule field renders as its value (Plan.Matches). Only equality is
// needed by the paper's protocols. <Fixed>URLCount=1</Fixed> fixes any
// other field.
type Rule struct {
	Field string
	Value string
}

// MessageDef describes one message type of the protocol.
type MessageDef struct {
	// Name is the abstract message name, e.g. "SLPSrvRequest".
	Name string
	// Rule selects this message from header content.
	Rule Rule
	// Fixed lists the values the definition fixes, Rule among them, in
	// document order: a composer writes those the message leaves unset.
	Fixed []Rule
	// Fields is the body layout (after the header).
	Fields []*FieldDef
	// Mandatory lists field labels participating in Mfields(n) for the
	// semantic equivalence operator (paper eq. 1).
	Mandatory []string
	// Body is the payload kind for text messages.
	Body BodyKind
}

// HeaderDef describes the header layout shared by all messages.
type HeaderDef struct {
	// TypeName is the value of the type attribute (protocol family).
	TypeName string
	Fields   []*FieldDef
}

// Spec is a complete MDL specification for one protocol.
type Spec struct {
	// Protocol names the protocol, e.g. "SLP"; abstract messages parsed
	// under this spec carry it.
	Protocol string
	Dialect  Dialect
	Types    map[string]TypeDef
	Header   *HeaderDef
	Messages []*MessageDef
}

// MessageByName returns the message definition with the given name.
func (s *Spec) MessageByName(name string) (*MessageDef, bool) {
	for _, m := range s.Messages {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// HeaderField returns the header field definition with the label, nil
// when the header has none.
func (s *Spec) HeaderField(label string) *FieldDef {
	for _, f := range s.Header.Fields {
		if f.Label == label {
			return f
		}
	}
	return nil
}

// InHeader reports whether every message of s carries label in its
// header: a header field's label or, when a text header absorbs
// label:value lines, a label the Types table names.
func (s *Spec) InHeader(label string) bool {
	_, typed := s.Types[label]
	return s.HeaderField(label) != nil || typed && slices.ContainsFunc(s.Header.Fields, func(f *FieldDef) bool { return f.Wildcard })
}

// TypeOf returns the type definition for a field label. Labels without
// an explicit entry default to String (text-dialect wildcard fields).
func (s *Spec) TypeOf(label string) TypeDef {
	if td, ok := s.Types[label]; ok {
		return td
	}
	return TypeDef{Label: label, TypeName: "String"}
}

// Validate checks internal consistency of the specification:
// every field has a usable size specification for the dialect, size and
// count references resolve to earlier integer fields, rules reference
// header fields, mandatory labels exist, and message names are unique.
func (s *Spec) Validate() error {
	if s.Protocol == "" {
		return fmt.Errorf("mdl: spec missing protocol name")
	}
	if s.Dialect != DialectBinary && s.Dialect != DialectText {
		return fmt.Errorf("mdl: spec %s: missing dialect", s.Protocol)
	}
	if s.Header == nil {
		return fmt.Errorf("mdl: spec %s: missing header", s.Protocol)
	}
	if len(s.Messages) == 0 {
		return fmt.Errorf("mdl: spec %s: no messages", s.Protocol)
	}
	headerLabels := map[string]bool{}
	for _, f := range s.Header.Fields {
		headerLabels[f.Label] = true
	}
	if err := s.validateFields(s.Header.Fields, map[string]bool{}, "header"); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, m := range s.Messages {
		if m.Name == "" {
			return fmt.Errorf("mdl: spec %s: message without name", s.Protocol)
		}
		if seen[m.Name] {
			return fmt.Errorf("mdl: spec %s: duplicate message %q", s.Protocol, m.Name)
		}
		seen[m.Name] = true
		if m.Rule.Field == "" {
			return fmt.Errorf("mdl: spec %s: message %q has no rule", s.Protocol, m.Name)
		}
		if _, _, err := s.RuleField(m.Rule.Field); err != nil {
			return fmt.Errorf("mdl: spec %s: message %q %w", s.Protocol, m.Name, err)
		}
		prior := map[string]bool{}
		for l := range headerLabels {
			prior[l] = true
		}
		if err := s.validateFields(m.Fields, prior, "message "+m.Name); err != nil {
			return err
		}
		bodyLabels := map[string]bool{}
		collectLabels(m.Fields, bodyLabels)
		for i, f := range m.Fixed {
			if _, typed := s.Types[f.Field]; !typed && !headerLabels[f.Field] && !bodyLabels[f.Field] || slices.ContainsFunc(m.Fixed[:i], func(g Rule) bool { return g.Field == f.Field }) {
				return fmt.Errorf("mdl: spec %s: message %q fixes %q twice or a field it lacks", s.Protocol, m.Name, f.Field)
			}
		}
		// Text-dialect wildcard fields carry dynamic labels, so any
		// mandatory label is permitted when a wildcard is present.
		wildcard := false
		for _, f := range s.Header.Fields {
			if f.Wildcard {
				wildcard = true
			}
		}
		for _, f := range m.Fields {
			if f.Wildcard {
				wildcard = true
			}
		}
		for _, l := range m.Mandatory {
			if !bodyLabels[l] && !headerLabels[l] && !wildcard {
				return fmt.Errorf("mdl: spec %s: message %q mandatory field %q not defined",
					s.Protocol, m.Name, l)
			}
		}
	}
	return nil
}

// RuleField locates a rule's field in the header: its index and, in the
// binary dialect, its bit offset. A classifier reaches it without
// parsing, so it and every field before it must sit at a position the
// spec fixes: a fixed bit width in the binary dialect, a delimiter of
// its own in the text dialect. A size reference, a repeat group, a
// self-delimiting type or the text wildcard before the rule field is an
// error.
func (s *Spec) RuleField(label string) (index, bit int, err error) {
	for i, f := range s.Header.Fields {
		fixed := !f.IsGroup() && f.SizeBits > 0
		if s.Dialect == DialectText {
			fixed = !f.Wildcard && len(f.Delim) > 0
		}
		switch {
		case f.Label == label && fixed:
			return i, bit, nil
		case f.Label == label:
			return -1, 0, fmt.Errorf("rule field %q has no fixed position: it is variable-width", label)
		case !fixed:
			return -1, 0, fmt.Errorf("rule field %q has no fixed position: it follows the variable-width field %q", label, f.Label)
		}
		bit += f.SizeBits
	}
	return -1, 0, fmt.Errorf("rule references unknown header field %q", label)
}

func collectLabels(fields []*FieldDef, into map[string]bool) {
	for _, f := range fields {
		into[f.Label] = true
		if f.IsGroup() {
			collectLabels(f.Group, into)
		}
	}
}

func (s *Spec) validateFields(fields []*FieldDef, prior map[string]bool, where string) error {
	for _, f := range fields {
		if f.Label == "" {
			return fmt.Errorf("mdl: spec %s: %s: field without label", s.Protocol, where)
		}
		if f.IsGroup() {
			if s.Dialect != DialectBinary {
				return fmt.Errorf("mdl: spec %s: %s: repeat group %q only supported in binary dialect",
					s.Protocol, where, f.Label)
			}
			if f.CountRef == "" {
				return fmt.Errorf("mdl: spec %s: %s: repeat group %q missing count", s.Protocol, where, f.Label)
			}
			if !prior[f.CountRef] {
				return fmt.Errorf("mdl: spec %s: %s: repeat group %q count %q not previously defined",
					s.Protocol, where, f.Label, f.CountRef)
			}
			inner := map[string]bool{}
			for k := range prior {
				inner[k] = true
			}
			if err := s.validateFields(f.Group, inner, where+" group "+f.Label); err != nil {
				return err
			}
			prior[f.Label] = true
			continue
		}
		switch s.Dialect {
		case DialectBinary:
			specs := 0
			if f.SizeBits > 0 {
				specs++
			}
			if f.SizeRef != "" {
				specs++
				if !prior[f.SizeRef] {
					return fmt.Errorf("mdl: spec %s: %s: field %q size ref %q not previously defined",
						s.Protocol, where, f.Label, f.SizeRef)
				}
			}
			if f.Rest {
				specs++
			}
			if specs > 1 {
				return fmt.Errorf("mdl: spec %s: %s: field %q has conflicting size specs",
					s.Protocol, where, f.Label)
			}
			if specs == 0 && s.TypeOf(f.Label).TypeName != "FQDN" {
				return fmt.Errorf("mdl: spec %s: %s: field %q has no size and type %q is not self-delimiting",
					s.Protocol, where, f.Label, s.TypeOf(f.Label).TypeName)
			}
		case DialectText:
			if !f.Wildcard && len(f.Delim) == 0 {
				return fmt.Errorf("mdl: spec %s: %s: text field %q has no delimiter",
					s.Protocol, where, f.Label)
			}
			if f.Wildcard && f.InnerSplit == 0 {
				return fmt.Errorf("mdl: spec %s: %s: wildcard %q needs an inner split byte",
					s.Protocol, where, f.Label)
			}
		}
		prior[f.Label] = true
	}
	return nil
}

// parseByteList parses "13,10" into []byte{13,10}.
func parseByteList(s string) ([]byte, error) {
	parts := strings.Split(s, ",")
	out := make([]byte, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 || n > 255 {
			return nil, fmt.Errorf("mdl: bad byte value %q in %q", p, s)
		}
		out = append(out, byte(n))
	}
	return out, nil
}

// ParseTextFieldSpec parses the content of a text-dialect field entry:
// "13,10" (delimiter only) or "13,10:58" (delimiter + inner split, the
// Fields wildcard form of Fig. 11).
func ParseTextFieldSpec(content string) (delim []byte, innerSplit byte, err error) {
	content = strings.TrimSpace(content)
	outer := content
	if i := strings.IndexByte(content, ':'); i >= 0 {
		outer = content[:i]
		innerBytes, err := parseByteList(content[i+1:])
		if err != nil {
			return nil, 0, err
		}
		if len(innerBytes) != 1 {
			return nil, 0, fmt.Errorf("mdl: inner split must be one byte, got %q", content[i+1:])
		}
		innerSplit = innerBytes[0]
	}
	delim, err = parseByteList(outer)
	if err != nil {
		return nil, 0, err
	}
	return delim, innerSplit, nil
}

// ParseBinaryFieldSpec parses the content of a binary-dialect field
// entry: a bit count ("16"), a size reference label ("PRLength"), "*"
// for the remaining tail, or "" for self-delimiting types.
func ParseBinaryFieldSpec(label, content string) (*FieldDef, error) {
	f := &FieldDef{Label: label}
	content = strings.TrimSpace(content)
	switch {
	case content == "*":
		f.Rest = true
	case content == "":
		// self-delimiting; validated against the type later
	default:
		if n, err := strconv.Atoi(content); err == nil {
			if n <= 0 {
				return nil, fmt.Errorf("mdl: field %q has non-positive size %d", label, n)
			}
			f.SizeBits = n
		} else {
			f.SizeRef = content
		}
	}
	return f, nil
}

// ParseRule parses "FunctionID=1" into a Rule.
func ParseRule(content string) (Rule, error) {
	content = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(content), ">"))
	i := strings.IndexByte(content, '=')
	if i <= 0 {
		return Rule{}, fmt.Errorf("mdl: bad rule %q", content)
	}
	return Rule{Field: content[:i], Value: content[i+1:]}, nil
}
