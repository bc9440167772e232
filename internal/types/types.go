// Package types implements the pluggable marshaller/unmarshaller
// mechanism of the Starlink MDL (paper §IV-A). Each MDL type name
// (Integer, String, FQDN, URL, ...) is backed by a Marshaller that
// converts between wire bytes and abstract message values. Registering
// new marshallers extends the language dynamically, with no compiler
// changes — the paper's example is adding an FQDN type by plugging in a
// marshaller that maps DNS-encoded names to strings.
//
// A parser makes one string copy of each message it receives and hands
// every marshaller a substring of it: Unmarshal's src is kept, not
// borrowed, so a marshaller returns it (or a substring of it) as the
// value instead of copying.
package types

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"starlink/internal/message"
)

// Marshaller converts field content between wire representation and
// abstract message values.
type Marshaller interface {
	// Name is the MDL type name this marshaller serves.
	Name() string
	// Kind is the abstract value kind produced by Unmarshal.
	Kind() message.Kind
	// AppendMarshal appends the encoding of v to dst and returns the
	// extended slice (dst on error). bits is the fixed field width in
	// bits, or 0 for variable-length fields (the encoding then determines
	// length). Appending lets a composer marshal into one reused buffer.
	AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error)
	// Unmarshal decodes src, the field's bytes as extracted from the
	// wire: for fixed-width fields exactly ceil(bits/8) bytes with the
	// value in the low bits when bits%8 != 0. src is a substring of the
	// received message's one copy, never of a reused buffer, so the
	// returned value may hold src or a substring of it as it is; a value
	// kept past its message keeps that copy alive.
	Unmarshal(src string, bits int) (message.Value, error)
}

// StructuredMarshaller is implemented by types that decode into
// structured fields (paper §III-A's URL example: protocol, address,
// port, resource children).
type StructuredMarshaller interface {
	Marshaller
	// Explode decodes v into the children of f, a field of m, which it
	// makes with m.NewField and m.NewChildren.
	Explode(m *message.Message, f *message.Field, v message.Value) error
	// Implode rebuilds the primitive value from child fields.
	Implode(children []*message.Field) (message.Value, error)
}

// Registry maps MDL type names to marshallers. The zero value is empty;
// NewRegistry returns one preloaded with the built-in types.
type Registry struct {
	byName map[string]Marshaller
}

// NewRegistry returns a registry with all built-in types registered:
// Integer, String, Bytes, Boolean, FQDN, URL and IPv4.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]Marshaller)}
	for _, m := range []Marshaller{
		IntegerMarshaller{},
		StringMarshaller{},
		BytesMarshaller{},
		BooleanMarshaller{},
		FQDNMarshaller{},
		URLMarshaller{},
		IPv4Marshaller{},
	} {
		r.MustRegister(m)
	}
	return r
}

// Register adds a marshaller; it fails if the name is already taken.
func (r *Registry) Register(m Marshaller) error {
	if _, exists := r.byName[m.Name()]; exists {
		return fmt.Errorf("types: %q already registered", m.Name())
	}
	r.byName[m.Name()] = m
	return nil
}

// MustRegister is Register, panicking on error; for package setup only.
func (r *Registry) MustRegister(m Marshaller) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Lookup returns the marshaller for an MDL type name.
func (r *Registry) Lookup(name string) (Marshaller, error) {
	m, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("types: unknown type %q", name)
	}
	return m, nil
}

// Names returns the registered type names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	return out
}

// IntegerMarshaller handles unsigned big-endian integers up to 64 bits.
type IntegerMarshaller struct{}

// Name implements Marshaller.
func (IntegerMarshaller) Name() string { return "Integer" }

// Kind implements Marshaller.
func (IntegerMarshaller) Kind() message.Kind { return message.KindInt }

// AppendMarshal implements Marshaller.
func (IntegerMarshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	i, ok := v.AsInt()
	if !ok {
		return dst, fmt.Errorf("types: Integer marshal: value is %v, not int", v.Kind())
	}
	if bits <= 0 || bits > 64 {
		return dst, fmt.Errorf("types: Integer requires fixed width 1..64 bits, got %d", bits)
	}
	if i < 0 {
		return dst, fmt.Errorf("types: Integer marshal: negative value %d", i)
	}
	if bits < 64 && uint64(i) >= 1<<uint(bits) {
		return dst, fmt.Errorf("types: value %d does not fit in %d bits", i, bits)
	}
	for b := (bits+7)/8 - 1; b >= 0; b-- {
		dst = append(dst, byte(uint64(i)>>(8*b)))
	}
	return dst, nil
}

// Unmarshal implements Marshaller.
func (IntegerMarshaller) Unmarshal(src string, bits int) (message.Value, error) {
	if bits <= 0 || bits > 64 {
		return message.Value{}, fmt.Errorf("types: Integer requires fixed width 1..64 bits, got %d", bits)
	}
	var u uint64
	for i := 0; i < len(src); i++ {
		u = u<<8 | uint64(src[i])
	}
	return message.Int(int64(u)), nil
}

// StringMarshaller handles UTF-8 text.
type StringMarshaller struct{}

// Name implements Marshaller.
func (StringMarshaller) Name() string { return "String" }

// Kind implements Marshaller.
func (StringMarshaller) Kind() message.Kind { return message.KindString }

// AppendMarshal implements Marshaller.
func (StringMarshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	out := dst
	if s, ok := v.AsString(); ok {
		out = append(out, s...)
	} else if i, iok := v.AsInt(); iok {
		// Allow marshalling integer values as their decimal text; text
		// protocols carry numbers as strings (e.g. an MX header).
		out = strconv.AppendInt(out, i, 10)
	} else {
		return dst, fmt.Errorf("types: String marshal: value is %v", v.Kind())
	}
	if n := len(out) - len(dst); bits > 0 && n*8 != bits {
		return dst, fmt.Errorf("types: string %q is %d bits, field is %d", out[len(dst):], n*8, bits)
	}
	return out, nil
}

// Unmarshal implements Marshaller.
func (StringMarshaller) Unmarshal(src string, bits int) (message.Value, error) {
	return message.Str(src), nil
}

// BytesMarshaller handles opaque byte strings.
type BytesMarshaller struct{}

// Name implements Marshaller.
func (BytesMarshaller) Name() string { return "Bytes" }

// Kind implements Marshaller.
func (BytesMarshaller) Kind() message.Kind { return message.KindBytes }

// AppendMarshal implements Marshaller.
func (BytesMarshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	out := dst
	if b, ok := v.BytesView(); ok {
		out = append(out, b...)
	} else if s, sok := v.AsString(); sok {
		out = append(out, s...)
	} else {
		return dst, fmt.Errorf("types: Bytes marshal: value is %v", v.Kind())
	}
	if n := len(out) - len(dst); bits > 0 && n*8 != bits {
		return dst, fmt.Errorf("types: bytes length %d bits, field is %d", n*8, bits)
	}
	return out, nil
}

// Unmarshal implements Marshaller.
func (BytesMarshaller) Unmarshal(src string, bits int) (message.Value, error) {
	return message.Bytes(src), nil
}

// BooleanMarshaller handles single-bit or single-byte booleans.
type BooleanMarshaller struct{}

// Name implements Marshaller.
func (BooleanMarshaller) Name() string { return "Boolean" }

// Kind implements Marshaller.
func (BooleanMarshaller) Kind() message.Kind { return message.KindBool }

// AppendMarshal implements Marshaller.
func (BooleanMarshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	b, ok := v.AsBool()
	if !ok {
		return dst, fmt.Errorf("types: Boolean marshal: value is %v", v.Kind())
	}
	var out byte
	if b {
		out = 1
	}
	return append(dst, out), nil
}

// Unmarshal implements Marshaller.
func (BooleanMarshaller) Unmarshal(src string, bits int) (message.Value, error) {
	for i := 0; i < len(src); i++ {
		if src[i] != 0 {
			return message.Bool(true), nil
		}
	}
	return message.Bool(false), nil
}

// FQDNMarshaller handles DNS name encoding: length-prefixed labels
// terminated by a zero byte ("3www7example3com0" style). This is the
// paper's example of extending the MDL type system with a plug-in
// marshaller; it is required by the mDNS (Bonjour) MDL.
type FQDNMarshaller struct{}

// Name implements Marshaller.
func (FQDNMarshaller) Name() string { return "FQDN" }

// Kind implements Marshaller.
func (FQDNMarshaller) Kind() message.Kind { return message.KindString }

// AppendMarshal implements Marshaller.
func (FQDNMarshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	s, ok := v.AsString()
	if !ok {
		return dst, fmt.Errorf("types: FQDN marshal: value is %v", v.Kind())
	}
	out := dst
	if s != "" && s != "." {
		for rest, more := strings.TrimSuffix(s, "."), true; more; {
			var label string
			label, rest, more = strings.Cut(rest, ".")
			if len(label) == 0 {
				return dst, fmt.Errorf("types: FQDN %q has empty label", s)
			}
			if len(label) > 63 {
				return dst, fmt.Errorf("types: FQDN label %q exceeds 63 bytes", label)
			}
			out = append(out, byte(len(label)))
			out = append(out, label...)
		}
	}
	return append(out, 0), nil
}

// Unmarshal implements Marshaller.
func (FQDNMarshaller) Unmarshal(src string, bits int) (message.Value, error) {
	s, _, err := DecodeFQDN(src)
	if err != nil {
		return message.Value{}, err
	}
	return message.Str(s), nil
}

// DecodeFQDN decodes a DNS-encoded name from the front of data,
// returning the dotted name and the number of bytes consumed. It is
// exported because variable-length FQDN fields require the parser to
// learn the consumed length. The labels are measured first, so the name
// is built with one allocation.
func DecodeFQDN(data string) (name string, n int, err error) {
	for n < len(data) && data[n] != 0 {
		if l := int(data[n]); l > 63 {
			return "", 0, fmt.Errorf("types: FQDN label length %d (compression unsupported)", l)
		}
		n += 1 + int(data[n])
	}
	if n >= len(data) {
		return "", 0, fmt.Errorf("types: truncated FQDN")
	}
	var b strings.Builder
	b.Grow(max(n-1, 0)) // the length bytes after the first become dots
	for i := 0; i < n; i += 1 + int(data[i]) {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(data[i+1 : i+1+int(data[i])])
	}
	return b.String(), n + 1, nil
}

// URLMarshaller handles URLs carried as text on the wire, decoding them
// into the structured field of §III-A: protocol, address, port and
// resource children.
type URLMarshaller struct{}

// Name implements Marshaller.
func (URLMarshaller) Name() string { return "URL" }

// Kind implements Marshaller.
func (URLMarshaller) Kind() message.Kind { return message.KindString }

// AppendMarshal implements Marshaller.
func (URLMarshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	s, ok := v.AsString()
	if !ok {
		return dst, fmt.Errorf("types: URL marshal: value is %v", v.Kind())
	}
	return append(dst, s...), nil
}

// Unmarshal implements Marshaller.
func (URLMarshaller) Unmarshal(src string, bits int) (message.Value, error) {
	return message.Str(src), nil
}

// Explode implements StructuredMarshaller. A URL of the plain form a
// discovery protocol advertises (scheme://host[:port][/path], nothing
// to unescape) is split by hand into substrings of v; any other goes
// through net/url.
func (URLMarshaller) Explode(m *message.Message, f *message.Field, v message.Value) error {
	s, ok := v.AsString()
	if !ok {
		return fmt.Errorf("types: URL explode: value is %v", v.Kind())
	}
	s = strings.TrimSpace(s)
	scheme, host, port, resource, ok := splitPlainURL(s)
	if !ok {
		u, err := url.Parse(s)
		if err != nil {
			return fmt.Errorf("types: URL explode %q: %w", s, err)
		}
		scheme, host, port, resource = u.Scheme, u.Hostname(), u.Port(), u.Path
	}
	pv := int64(0)
	if port != "" {
		var err error
		if pv, err = strconv.ParseInt(port, 10, 32); err != nil {
			return fmt.Errorf("types: URL port %q: %w", port, err)
		}
	} else if scheme == "http" {
		pv = 80
	}
	if resource == "" {
		resource = "/"
	}
	f.Children = append(m.NewChildren(4),
		m.NewField("protocol", message.Str(scheme)),
		m.NewField("address", message.Str(host)),
		m.NewField("port", message.Int(pv)),
		m.NewField("resource", message.Str(resource)))
	return nil
}

// splitPlainURL splits scheme://host[:port][path] when every byte is
// one net/url reads as itself — a lower-case scheme; no userinfo,
// brackets, escapes, query or fragment; at most one colon in the
// authority and a port of digits — and reports false for anything
// else, which net/url then parses. On the plain form it agrees with
// url.Parse's Scheme, Hostname, Port and Path.
func splitPlainURL(s string) (scheme, host, port, path string, ok bool) {
	i := strings.Index(s, "://")
	if i <= 0 || s[0] < 'a' || s[0] > 'z' {
		return "", "", "", "", false
	}
	for j := 1; j < i; j++ {
		if c := s[j]; !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.') {
			return "", "", "", "", false
		}
	}
	rest := s[i+3:]
	for j := 0; j < len(rest); j++ {
		if c := rest[j]; !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.IndexByte("-._~/:!$&'()*+,;=", c) >= 0) {
			return "", "", "", "", false
		}
	}
	auth := rest
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		auth, path = rest[:j], rest[j:]
	}
	host = auth
	if j := strings.IndexByte(auth, ':'); j >= 0 {
		host, port = auth[:j], auth[j+1:]
		for k := 0; k < len(port); k++ {
			if port[k] < '0' || port[k] > '9' {
				return "", "", "", "", false
			}
		}
	}
	return s[:i], host, port, path, true
}

// Implode implements StructuredMarshaller.
func (URLMarshaller) Implode(children []*message.Field) (message.Value, error) {
	get := func(label string) (message.Value, bool) {
		for _, c := range children {
			if c.Label == label {
				return c.Value, true
			}
		}
		return message.Value{}, false
	}
	proto, ok := get("protocol")
	if !ok {
		return message.Value{}, fmt.Errorf("types: URL implode: missing protocol")
	}
	addr, ok := get("address")
	if !ok {
		return message.Value{}, fmt.Errorf("types: URL implode: missing address")
	}
	// Rendered by net/url, so that what Explode accepts — no scheme, an
	// IPv6 host, a resource needing escapes — reads back as it was.
	u := url.URL{Path: "/"}
	u.Scheme, _ = proto.AsString()
	u.Host, _ = addr.AsString()
	if strings.Contains(u.Host, ":") {
		u.Host = "[" + u.Host + "]"
	}
	if pv, ok := get("port"); ok {
		if p, pok := pv.AsInt(); pok && p > 0 {
			u.Host += ":" + strconv.FormatInt(p, 10)
		}
	}
	if rv, ok := get("resource"); ok {
		if r, rok := rv.AsString(); rok && r != "" {
			u.Path = r
		}
	}
	return message.Str(u.String()), nil
}

// IPv4Marshaller handles 32-bit IPv4 addresses in dotted-quad text form.
type IPv4Marshaller struct{}

// Name implements Marshaller.
func (IPv4Marshaller) Name() string { return "IPv4" }

// Kind implements Marshaller.
func (IPv4Marshaller) Kind() message.Kind { return message.KindString }

// AppendMarshal implements Marshaller.
func (IPv4Marshaller) AppendMarshal(dst []byte, v message.Value, bits int) ([]byte, error) {
	s, ok := v.AsString()
	if !ok {
		return dst, fmt.Errorf("types: IPv4 marshal: value is %v", v.Kind())
	}
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return dst, fmt.Errorf("types: invalid IPv4 %q", s)
	}
	out := dst
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return dst, fmt.Errorf("types: invalid IPv4 octet %q", p)
		}
		out = append(out, byte(n))
	}
	return out, nil
}

// Unmarshal implements Marshaller.
func (IPv4Marshaller) Unmarshal(src string, bits int) (message.Value, error) {
	if len(src) != 4 {
		return message.Value{}, fmt.Errorf("types: IPv4 needs 4 bytes, got %d", len(src))
	}
	return message.Str(fmt.Sprintf("%d.%d.%d.%d", src[0], src[1], src[2], src[3])), nil
}

// Compile-time interface compliance checks.
var (
	_ Marshaller           = IntegerMarshaller{}
	_ Marshaller           = StringMarshaller{}
	_ Marshaller           = BytesMarshaller{}
	_ Marshaller           = BooleanMarshaller{}
	_ Marshaller           = FQDNMarshaller{}
	_ StructuredMarshaller = URLMarshaller{}
	_ Marshaller           = IPv4Marshaller{}
)
