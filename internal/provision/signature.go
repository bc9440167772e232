package provision

import (
	"bytes"
	"strconv"

	"starlink/internal/bitio"
	"starlink/internal/mdl"
)

// protoSignature classifies a wire payload of one protocol without
// parsing it. It is derived from the protocol's MDL specification at
// deploy time: every message of a spec is selected by a rule over one
// header field (FunctionID=1, Method=M-SEARCH, Flags=33792, ...), and
// when that field sits at a statically computable position — a fixed
// bit offset for binary dialects, a delimiter-counted token of the
// first line for text dialects — the rule can be evaluated with a
// bounds check and a byte comparison instead of a full trial parse.
//
// Classify mirrors the parser's rule selection (mdl.Plan.Matches)
// exactly on well-formed payloads: it returns the name of the message
// whose rule matches, or ok=false when no rule matches (where a trial
// parse would fail too). It does not validate the message body — a
// payload with a valid discriminator but a malformed tail classifies
// here and is rejected by the owning engine's parser instead.
type protoSignature struct {
	dialect mdl.Dialect

	// Binary dialect: the rule field's absolute bit offset and width in
	// the fixed header prefix, and the prefix length needed to read it.
	bitOff   int
	bits     int
	minBytes int

	// Text dialect: the delimiters of the header fields preceding the
	// rule field, and the rule field's own delimiter, in order.
	leadDelims [][]byte
	ruleDelim  []byte

	// rules maps discriminator values to message names, in spec order
	// (the parser takes the first match). Kept as a slice and compared
	// per entry so text classification never converts the scanned token
	// to a string.
	rules []sigRule
}

type sigRule struct {
	intVal  uint64 // binary dialect
	textVal string // text dialect
	name    string
}

// deriveSignature builds the signature for a spec, or nil when the
// spec's rule field is not statically addressable (a variable-width
// field precedes it, messages disagree on the rule field, or a binary
// rule value is not an integer). A nil signature makes the dispatcher
// fall back to trial parsing for the protocol.
func deriveSignature(spec *mdl.Spec) *protoSignature {
	if len(spec.Messages) == 0 {
		return nil
	}
	ruleField := spec.Messages[0].Rule.Field
	for _, m := range spec.Messages[1:] {
		if m.Rule.Field != ruleField {
			return nil
		}
	}
	s := &protoSignature{dialect: spec.Dialect}
	switch spec.Dialect {
	case mdl.DialectBinary:
		off := 0
		found := false
		for _, fd := range spec.Header.Fields {
			if fd.Label == ruleField {
				if fd.SizeBits <= 0 || fd.SizeBits > 64 {
					return nil
				}
				s.bitOff, s.bits = off, fd.SizeBits
				s.minBytes = (off + fd.SizeBits + 7) / 8
				found = true
				break
			}
			if fd.IsGroup() || fd.SizeBits <= 0 {
				return nil // variable-width field before the rule
			}
			off += fd.SizeBits
		}
		if !found {
			return nil
		}
		// The parser renders the rule field with Value.Text before
		// matching, so the comparison is only integer-vs-decimal when
		// the field's type is integer-kinded and the rule value is in
		// canonical decimal form ("7", never "007" or "+7"). Anything
		// else (Bytes-typed discriminators render as hex, non-canonical
		// values never match) falls back to trial parsing.
		if td := spec.TypeOf(ruleField); td.TypeName != "Integer" {
			return nil
		}
		for _, m := range spec.Messages {
			// ParseInt (not ParseUint): the parser stores the field as a
			// signed message.Int, so values ≥ 2^63 would render
			// negative there and never match — no signature for those.
			v, err := strconv.ParseInt(m.Rule.Value, 10, 64)
			if err != nil || v < 0 || strconv.FormatInt(v, 10) != m.Rule.Value ||
				(s.bits < 64 && uint64(v) >= 1<<uint(s.bits)) {
				return nil
			}
			s.rules = append(s.rules, sigRule{intVal: uint64(v), name: m.Name})
		}
	case mdl.DialectText:
		found := false
		for _, fd := range spec.Header.Fields {
			if fd.Wildcard || len(fd.Delim) == 0 {
				return nil // rule field must precede the wildcard run
			}
			if fd.Label == ruleField {
				s.ruleDelim = fd.Delim
				found = true
				break
			}
			s.leadDelims = append(s.leadDelims, fd.Delim)
		}
		if !found {
			return nil
		}
		// Text rule fields compare as verbatim tokens; an Integer-typed
		// rule field would render "007" as "7" and diverge, so require
		// a plain string type (every paper model qualifies).
		if td := spec.TypeOf(ruleField); td.TypeName != "String" {
			return nil
		}
		for _, m := range spec.Messages {
			s.rules = append(s.rules, sigRule{textVal: m.Rule.Value, name: m.Name})
		}
	default:
		return nil
	}
	return s
}

// Classify resolves the payload's message name from its discriminator
// bytes alone. ok is false when the payload is too short, the rule
// token cannot be delimited, or no message rule matches — all cases in
// which a trial parse would have failed to select a message as well.
// Zero allocations.
//
//starlink:hotpath
func (s *protoSignature) Classify(data []byte) (name string, ok bool) {
	switch s.dialect {
	case mdl.DialectBinary:
		if len(data) < s.minBytes {
			return "", false
		}
		var r bitio.Reader
		r.Init(data)
		if r.Skip(s.bitOff) != nil {
			return "", false
		}
		v, err := r.ReadBits(s.bits)
		if err != nil {
			return "", false
		}
		for _, r := range s.rules {
			if r.intVal == v {
				return r.name, true
			}
		}
		return "", false
	case mdl.DialectText:
		rest := data
		for _, d := range s.leadDelims {
			i := bytes.Index(rest, d)
			if i < 0 {
				return "", false
			}
			rest = rest[i+len(d):]
		}
		i := bytes.Index(rest, s.ruleDelim)
		if i < 0 {
			return "", false
		}
		token := rest[:i]
		for _, r := range s.rules {
			if string(token) == r.textVal { // comparison only: no alloc
				return r.name, true
			}
		}
		return "", false
	}
	return "", false
}

// SignatureRule is one discriminator-value → message entry of a
// SignatureInfo, in spec order.
type SignatureRule struct {
	IntVal  uint64 // binary dialect
	TextVal string // text dialect
	Message string
}

// SignatureInfo is the exported mirror of the dispatcher's derived
// protocol signature, for static model tooling (mdlc lint). It
// describes where a protocol's discriminator lives and which values
// select which message.
type SignatureInfo struct {
	Dialect mdl.Dialect

	// Binary dialect: absolute bit offset and width of the rule field,
	// and the prefix length needed to read it.
	BitOff, Bits, MinBytes int

	// Text dialect: delimiters of the header fields preceding the rule
	// field, and the rule field's own delimiter.
	LeadDelims [][]byte
	RuleDelim  []byte

	Rules []SignatureRule
}

// DeriveSignatureInfo derives the classification signature for a spec
// exactly as the runtime dispatcher does, or nil when the rule field is
// not statically addressable (the dispatcher then falls back to trial
// parsing, and static collision analysis cannot decide overlap).
func DeriveSignatureInfo(spec *mdl.Spec) *SignatureInfo {
	s := deriveSignature(spec)
	if s == nil {
		return nil
	}
	info := &SignatureInfo{
		Dialect:    s.dialect,
		BitOff:     s.bitOff,
		Bits:       s.bits,
		MinBytes:   s.minBytes,
		LeadDelims: s.leadDelims,
		RuleDelim:  s.ruleDelim,
	}
	for _, r := range s.rules {
		info.Rules = append(info.Rules, SignatureRule{IntVal: r.intVal, TextVal: r.textVal, Message: r.name})
	}
	return info
}
