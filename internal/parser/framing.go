package parser

import (
	"bytes"
	"fmt"

	"starlink/internal/mdl"
)

// Framer delimits complete messages in a byte stream. Datagram
// transports deliver whole messages, but stream transports (the TCP leg
// of the HTTP automaton, Fig. 3) need MDL-driven framing: the framer
// inspects buffered bytes and reports how long the next complete
// message is.
type Framer struct {
	spec *mdl.Spec
	// binary: bit offset and width of the total-length header field,
	// and the byte length of the fixed header prefix needed to read it.
	lenBitOff int
	lenBits   int
	minBytes  int
}

// NewFramer builds a framer for the spec. Binary specs must declare a
// header field whose type carries f-totallength() at a statically
// computable offset (every preceding header field fixed-width); text
// specs frame on the blank line plus an optional Content-Length field.
func NewFramer(spec *mdl.Spec) (*Framer, error) {
	f := &Framer{spec: spec}
	if spec.Dialect != mdl.DialectBinary {
		return f, nil
	}
	off := 0
	for _, fd := range spec.Header.Fields {
		td := spec.TypeOf(fd.Label)
		if td.Func != nil && td.Func.Name == "f-totallength" {
			if fd.SizeBits <= 0 || fd.SizeBits > 64 {
				return nil, fmt.Errorf("parser: total-length field %q must be fixed <=64 bits", fd.Label)
			}
			f.lenBitOff = off
			f.lenBits = fd.SizeBits
			f.minBytes = (off + fd.SizeBits + 7) / 8
			return f, nil
		}
		if fd.SizeBits <= 0 {
			break // variable field before the length: cannot frame statically
		}
		off += fd.SizeBits
	}
	return nil, fmt.Errorf("parser: spec %s has no statically addressable f-totallength field", spec.Protocol)
}

// Frame reports the length in bytes of the first complete message in
// buf, or 0 if more data is needed.
func (f *Framer) Frame(buf []byte) (int, error) {
	if f.spec.Dialect == mdl.DialectBinary {
		return f.frameBinary(buf)
	}
	return f.frameText(buf)
}

func (f *Framer) frameBinary(buf []byte) (int, error) {
	if len(buf) < f.minBytes {
		return 0, nil
	}
	var v uint64
	pos := f.lenBitOff
	for i := 0; i < f.lenBits; i++ {
		b := (buf[pos/8] >> (7 - pos%8)) & 1
		v = v<<1 | uint64(b)
		pos++
	}
	total := int(v)
	if total < f.minBytes {
		return 0, fmt.Errorf("parser: framed length %d shorter than header", total)
	}
	if len(buf) < total {
		return 0, nil
	}
	return total, nil
}

var crlfcrlf = []byte("\r\n\r\n")

func (f *Framer) frameText(buf []byte) (int, error) {
	i := bytes.Index(buf, crlfcrlf)
	if i < 0 {
		return 0, nil
	}
	headEnd := i + len(crlfcrlf)
	// Look for a Content-Length line (case-insensitive) in the head,
	// walking lines in place — this runs per stream read, so it must
	// not allocate.
	head := buf[:headEnd]
	bodyLen := 0
	for len(head) > 0 {
		var line []byte
		if k := bytes.Index(head, crlfcrlf[:2]); k >= 0 {
			line, head = head[:k], head[k+2:]
		} else {
			line, head = head, nil
		}
		j := bytes.IndexByte(line, ':')
		if j < 0 {
			continue
		}
		name := bytes.TrimSpace(line[:j])
		if !equalFold(string(name), "Content-Length") {
			continue
		}
		n, err := parseIntBytes(line[j+1:])
		if err != nil || n < 0 || n > 1<<31-1 {
			return 0, fmt.Errorf("parser: bad Content-Length %q", line)
		}
		bodyLen = int(n)
		break
	}
	total := headEnd + bodyLen
	if len(buf) < total {
		return 0, nil
	}
	return total, nil
}

// equalFold compares ASCII case-insensitively. The string(name)
// conversion at the call site does not allocate: the compiler sees the
// argument never escapes.
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
