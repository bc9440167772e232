package parser

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"starlink/internal/message"
)

// flattenXMLBody parses an XML payload and adds every leaf element
// (element whose content is character data only) as a primitive String
// field labelled by the element's local name. Nested container elements
// contribute no field of their own. This supports text messages that
// carry an XML document — the UPnP device description whose URLBase
// element feeds the SLP reply in the paper's Fig. 4 translation logic.
//
// Duplicate leaf names keep the first occurrence, matching the
// "first match wins" reading used by the translation XPath engine, and
// a label the message already carries (a header field) is never
// replaced. A leaf's value is its character data and CDATA sections
// concatenated, references expanded, line ends normalised, trimmed.
//
// The body is decided by scanXMLLeaves when it lies in the subset that
// scanner validates, and by decodeXMLLeaves — the encoding/xml loop,
// which defines accept/reject and the field list for every input —
// otherwise. The scanner adds nothing to msg unless it accepts, so the
// decoder always starts from the message the caller passed in.
//
// text is body's bytes as a substring of the message's one copy, which
// backs the scanner's labels and verbatim values. On both paths a leaf
// that would take msg past maxTextFields fields is an error.
func flattenXMLBody(body []byte, text string, msg *message.Message) error {
	start := len(body) - len(bytes.TrimLeftFunc(body, unicode.IsSpace))
	body = bytes.TrimRightFunc(body[start:], unicode.IsSpace)
	if len(body) == 0 {
		return nil
	}
	if ok, err := scanXMLLeaves(body, text[start:start+len(body)], msg); ok {
		return err
	}
	return decodeXMLLeaves(body, msg)
}

// decodeXMLLeaves is flattenXMLBody over encoding/xml's token stream:
// the only path for input outside the scanner's subset (directives,
// custom entities, non-ASCII names, every malformed body — whose error
// it words) and the reference FuzzXMLBody holds the scanner to.
func decodeXMLLeaves(body []byte, msg *message.Message) error {
	dec := xml.NewDecoder(bytes.NewReader(body))
	type frame struct {
		name    string
		text    strings.Builder
		hasElem bool
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("xml body: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) > 0 {
				stack[len(stack)-1].hasElem = true
			}
			stack = append(stack, &frame{name: t.Name.Local})
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text.Write(t)
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("xml body: unbalanced end element %q", t.Name.Local)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !top.hasElem {
				label := top.name
				if _, exists := msg.Field(label); !exists {
					if msg.Len() >= maxTextFields {
						return errTooManyFields
					}
					msg.Add(newField(label, "String", 0, message.Str(strings.TrimSpace(top.text.String()))))
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Single-pass leaf scanner
// ---------------------------------------------------------------------
//
// The scanner walks the borrowed body once, jumping from '<' to '<', and
// accepts exactly the documents it has checked in full:
//
//   - an XML declaration at offset 0 with version 1.0, an optional UTF-8
//     encoding and an optional standalone flag; other processing
//     instructions with an ASCII target;
//   - comments without "--" inside; CDATA sections;
//   - start, end and empty-element tags with ASCII names (at most one
//     colon) and quoted attribute values free of '<';
//   - the five predefined entities and numeric character references;
//   - character data that is valid UTF-8 inside XML's Char production,
//     with no "]]>";
//   - every end tag matching its start tag, nothing open at the end.
//
// Anything else — <!DOCTYPE and other directives, custom entities,
// non-ASCII names, a malformed construct — makes it give up without
// having touched the message, and decodeXMLLeaves decides. Within the
// subset the two agree on the field list; encoding/xml's leniencies the
// old loop inherited (text or several elements at top level, repeated
// attributes, no space between attributes) are kept, because they only
// ever widen what both accept.

// Byte classes of xmlClass.
const (
	xcText      = 1 << iota // character data needing no attention
	xcNameStart             // may start a name
	xcName                  // may continue a name
)

var xmlClass = func() (t [256]uint8) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = xcText
	}
	t['\t'], t['\n'] = xcText, xcText
	t['&'], t['<'], t['>'] = 0, 0, 0
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= xcNameStart | xcName
		t[c-'a'+'A'] |= xcNameStart | xcName
	}
	for c := '0'; c <= '9'; c++ {
		t[c] |= xcName
	}
	t['_'] |= xcNameStart | xcName
	t[':'] |= xcNameStart | xcName
	t['-'] |= xcName
	t['.'] |= xcName
	return t
}()

// isXMLChar is the Char production of XML 1.0 §2.2.
func isXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= unicode.MaxRune
}

// charKind says what a run of characters is part of, which decides what
// '&', '<' and '>' mean in it.
type charKind uint8

const (
	inText  charKind = iota // character data: references, no "]]>"
	inCDATA                 // CDATA section: nothing is markup
	inAttr                  // quoted attribute value: references, no '<'
	inMisc                  // comment or processing instruction
)

// xmlFrame is one open element: its qualified name as written (what the
// end tag must repeat) and where the local part starts.
type xmlFrame struct {
	name, local, nameEnd int32
	hasElem              bool
}

// xmlValue is the text of an element as offsets: into the body while it
// is one verbatim run of it, into the scanner's scratch buffer once it
// had to be rewritten (references, line ends, several runs).
type xmlValue struct {
	start, end int32
	state      uint8
}

const (
	valueNone  = iota // no text yet
	valueSpan         // body[start:end]
	valueBuilt        // scratch[start:end]; end is set when the element closes
)

// xmlLeaf is a finished leaf element, kept as offsets so that nothing is
// materialised before the whole body is accepted.
type xmlLeaf struct {
	local, nameEnd int32
	value          xmlValue
}

// scanXMLLeaves is the fast path of flattenXMLBody. It reports false,
// with msg untouched, for any body it does not accept (an error comes
// only with true). s holds the same bytes as body, as a string.
//
//starlink:hotpath
func scanXMLLeaves(body []byte, s string, msg *message.Message) (bool, error) {
	if len(body) > math.MaxInt32 {
		return false, nil
	}
	// All scanner state lives in this frame, and the helpers below take
	// and return what they change: appending through a pointer would
	// move the arrays to the heap. Typical descriptions fit them;
	// deeper or larger ones grow onto the heap.
	var (
		frameArr   [32]xmlFrame
		leafArr    [64]xmlLeaf
		scratchArr [256]byte
	)
	frames, leaves, scratch := frameArr[:0], leafArr[:0], scratchArr[:0]
	// text is the value of the innermost open element, collected only
	// while no element has been opened inside it.
	var text xmlValue

	for i := 0; i < len(body); {
		if body[i] != '<' {
			end := len(body)
			if k := bytes.IndexByte(body[i:], '<'); k >= 0 {
				end = i + k
			}
			var ok bool
			if text, scratch, ok = xmlChars(body, i, end, inText, leafOpen(frames), text, scratch); !ok {
				return false, nil
			}
			i = end
			continue
		}
		if i+1 == len(body) {
			return false, nil
		}
		closes := false
		switch body[i+1] {
		case '/':
			if len(frames) == 0 {
				return false, nil
			}
			i, closes = xmlEndTag(body, i, frames[len(frames)-1]), true
		case '?':
			i = xmlProcInst(body, i)
		case '!':
			switch {
			case bytes.HasPrefix(body[i:], []byte("<!--")):
				i = xmlComment(body, i)
			case bytes.HasPrefix(body[i:], []byte("<![CDATA[")):
				j := i + len("<![CDATA[")
				k := bytes.Index(body[j:], []byte("]]>"))
				if k < 0 {
					return false, nil
				}
				var ok bool
				if text, scratch, ok = xmlChars(body, j, j+k, inCDATA, leafOpen(frames), text, scratch); !ok {
					return false, nil
				}
				i = j + k + len("]]>")
			default:
				return false, nil // a directive: the decoder's business
			}
		default:
			f := xmlFrame{name: int32(i + 1)}
			if i, f, closes = xmlStartTag(body, f); i < 0 {
				return false, nil
			}
			// The parent stops being a leaf candidate; drop its text.
			if n := len(frames); n > 0 {
				frames[n-1].hasElem = true
			}
			if text.state == valueBuilt {
				scratch = scratch[:text.start]
			}
			text = xmlValue{}
			frames = append(frames, f)
		}
		if i < 0 {
			return false, nil
		}
		if closes {
			f := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			if !f.hasElem {
				if text.state == valueBuilt {
					text.end = int32(len(scratch))
				}
				leaves = append(leaves, xmlLeaf{local: f.local, nameEnd: f.nameEnd, value: text})
			}
			text = xmlValue{}
		}
	}
	if len(frames) != 0 {
		return false, nil
	}
	if len(leaves) == 0 {
		return true, nil
	}

	// Accepted. The caller's one copy of the body backs every label and
	// every verbatim value.
	for _, lf := range leaves {
		label := s[lf.local:lf.nameEnd]
		if _, exists := msg.Field(label); exists {
			continue
		}
		if msg.Len() >= maxTextFields {
			return true, errTooManyFields
		}
		var v string
		switch lf.value.state {
		case valueSpan:
			v = strings.TrimSpace(s[lf.value.start:lf.value.end])
		case valueBuilt:
			v = string(bytes.TrimSpace(scratch[lf.value.start:lf.value.end]))
		}
		msg.Add(newField(label, "String", 0, message.Str(v)))
	}
	return true, nil
}

// leafOpen reports whether text met now belongs to an element that can
// still turn out to be a leaf.
func leafOpen(frames []xmlFrame) bool {
	return len(frames) > 0 && !frames[len(frames)-1].hasElem
}

// xmlSpace returns the index of the first byte at or after i that is not
// XML white space.
func xmlSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// xmlName scans an ASCII name starting at i and returns its end and the
// start of its local part (after the colon, when exactly one colon
// separates two non-empty halves). end is -1 when there is no name, the
// name has a second colon, or it runs into a non-ASCII byte.
func xmlName(body []byte, i int) (end, local int) {
	if i >= len(body) || xmlClass[body[i]]&xcNameStart == 0 {
		return -1, 0
	}
	colon := -1
	j := i
	for ; j < len(body) && xmlClass[body[j]]&xcName != 0; j++ {
		if body[j] == ':' {
			if colon >= 0 {
				return -1, 0
			}
			colon = j
		}
	}
	if j < len(body) && body[j] >= utf8.RuneSelf {
		return -1, 0
	}
	local = i
	if colon > i && colon < j-1 {
		local = colon + 1
	}
	return j, local
}

// xmlStartTag scans the start or empty-element tag whose name begins at
// f.name. It returns the index after the tag's '>' (-1 when it is not
// well formed), the frame with its name filled in, and whether the tag
// closes the element as well.
func xmlStartTag(body []byte, f xmlFrame) (next int, _ xmlFrame, empty bool) {
	nameEnd, local := xmlName(body, int(f.name))
	if nameEnd < 0 {
		return -1, f, false
	}
	f.local, f.nameEnd = int32(local), int32(nameEnd)
	for j := nameEnd; ; {
		j = xmlSpace(body, j)
		if j >= len(body) {
			return -1, f, false
		}
		switch body[j] {
		case '>':
			return j + 1, f, false
		case '/':
			if j+1 >= len(body) || body[j+1] != '>' {
				return -1, f, false
			}
			return j + 2, f, true
		}
		// Attribute: Name S? '=' S? quoted value.
		if j, _ = xmlName(body, j); j < 0 {
			return -1, f, false
		}
		v, end := xmlQuoted(body, j)
		if v < 0 || !xmlValid(body, v, end, inAttr) {
			return -1, f, false
		}
		j = end + 1
	}
}

// xmlQuoted scans S? '=' S? and a quoted value at i. It returns the
// bounds of the value between its quotes, or -1.
func xmlQuoted(body []byte, i int) (start, end int) {
	if i = xmlSpace(body, i); i >= len(body) || body[i] != '=' {
		return -1, 0
	}
	if i = xmlSpace(body, i+1); i >= len(body) || body[i] != '"' && body[i] != '\'' {
		return -1, 0
	}
	k := bytes.IndexByte(body[i+1:], body[i])
	if k < 0 {
		return -1, 0
	}
	return i + 1, i + 1 + k
}

// xmlEndTag scans the end tag whose '<' is at i; it must repeat the
// open element's name byte for byte.
func xmlEndTag(body []byte, i int, open xmlFrame) int {
	j := i + 2 + int(open.nameEnd-open.name)
	if j > len(body) || !bytes.Equal(body[i+2:j], body[open.name:open.nameEnd]) {
		return -1
	}
	// A longer name fails here: its next byte is neither space nor '>'.
	if j = xmlSpace(body, j); j >= len(body) || body[j] != '>' {
		return -1
	}
	return j + 1
}

// xmlProcInst scans the processing instruction whose '<' is at i.
func xmlProcInst(body []byte, i int) int {
	targetEnd, _ := xmlName(body, i+2)
	if targetEnd < 0 {
		return -1
	}
	if bytes.EqualFold(body[i+2:targetEnd], []byte("xml")) {
		if i != 0 || string(body[i+2:targetEnd]) != "xml" {
			return -1
		}
		return xmlDecl(body, targetEnd)
	}
	j := xmlSpace(body, targetEnd)
	if j == targetEnd && !bytes.HasPrefix(body[j:], []byte("?>")) {
		return -1
	}
	k := bytes.Index(body[j:], []byte("?>"))
	if k < 0 || !xmlValid(body, j, j+k, inMisc) {
		return -1
	}
	return j + k + 2
}

// xmlDecl scans the rest of an XML declaration from the end of its
// target: version 1.0, then optionally a UTF-8 encoding and a
// standalone flag, in that order. Any other encoding would need a
// transcoding reader, which is the decoder's business.
func xmlDecl(body []byte, j int) int {
	j, v := xmlPseudoAttr(body, j, "version")
	if string(v) != "1.0" {
		return -1
	}
	if k, v := xmlPseudoAttr(body, j, "encoding"); v != nil {
		if !bytes.EqualFold(v, []byte("utf-8")) {
			return -1
		}
		j = k
	}
	if k, v := xmlPseudoAttr(body, j, "standalone"); v != nil {
		if string(v) != "yes" && string(v) != "no" {
			return -1
		}
		j = k
	}
	if j = xmlSpace(body, j); !bytes.HasPrefix(body[j:], []byte("?>")) {
		return -1
	}
	return j + 2
}

// xmlPseudoAttr scans S, the given name and its quoted, non-empty value
// at i. It returns the index after the closing quote and the value, or
// i and nil when that is not what is there.
func xmlPseudoAttr(body []byte, i int, name string) (int, []byte) {
	j := xmlSpace(body, i)
	if j == i || !bytes.HasPrefix(body[j:], []byte(name)) {
		return i, nil
	}
	v, end := xmlQuoted(body, j+len(name))
	if v < 0 || v == end {
		return i, nil
	}
	return end + 1, body[v:end]
}

// xmlComment scans the comment whose '<' is at i.
func xmlComment(body []byte, i int) int {
	j := i + len("<!--")
	k := bytes.Index(body[j:], []byte("--"))
	if k < 0 || j+k+2 >= len(body) || body[j+k+2] != '>' || !xmlValid(body, j, j+k, inMisc) {
		return -1
	}
	return j + k + len("-->")
}

// xmlValid validates body[i:end] as characters of the given kind.
func xmlValid(body []byte, i, end int, kind charKind) bool {
	_, _, ok := xmlChars(body, i, end, kind, false, xmlValue{}, nil)
	return ok
}

// xmlChars validates body[i:end] as characters of the given kind: valid
// UTF-8, inside the Char production, well-formed references, no "]]>"
// in character data, no '<' in an attribute value. With keep it also
// appends the run to value — references expanded, CR and CRLF turned
// into LF — and returns the value and the scratch buffer it may have
// grown into.
//
//starlink:hotpath
func xmlChars(body []byte, i, end int, kind charKind, keep bool, value xmlValue, scratch []byte) (xmlValue, []byte, bool) {
	seg := i // start of the verbatim piece not yet collected
	run := body[:end]
	for j := i; j < len(run); {
		c := run[j]
		if xmlClass[c]&xcText != 0 {
			j++
			continue
		}
		switch {
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(run[j:])
			if r == utf8.RuneError && n == 1 || !isXMLChar(r) {
				return value, scratch, false
			}
			j += n
		case c == '\r':
			if keep {
				value, scratch = xmlCollect(run[seg:j], body, value, scratch)
				scratch = append(scratch, '\n')
			}
			if j++; j < len(run) && run[j] == '\n' {
				j++
			}
			seg = j
		case c == '&' && (kind == inText || kind == inAttr):
			r, n := xmlReference(run[j:])
			if n == 0 {
				return value, scratch, false
			}
			if keep {
				value, scratch = xmlCollect(run[seg:j], body, value, scratch)
				scratch = utf8.AppendRune(scratch, r)
			}
			j += n
			seg = j
		case c == '>' && kind == inText:
			if j-i >= 2 && run[j-1] == ']' && run[j-2] == ']' {
				return value, scratch, false
			}
			j++
		case c == '<' && kind == inAttr:
			return value, scratch, false
		case c == '&' || c == '<' || c == '>':
			j++ // not markup in this kind
		default:
			return value, scratch, false // control character outside Char
		}
	}
	if keep && seg < end {
		if value.state == valueNone {
			value = xmlValue{start: int32(seg), end: int32(end), state: valueSpan}
		} else {
			value, scratch = xmlCollect(run[seg:], body, value, scratch)
		}
	}
	return value, scratch, true
}

// xmlCollect appends piece to a value that lives in scratch, moving
// there first what the value held as a span of body.
//
//starlink:hotpath
func xmlCollect(piece, body []byte, value xmlValue, scratch []byte) (xmlValue, []byte) {
	if value.state != valueBuilt {
		start := int32(len(scratch))
		if value.state == valueSpan {
			scratch = append(scratch, body[value.start:value.end]...)
		}
		value = xmlValue{start: start, state: valueBuilt}
	}
	return value, append(scratch, piece...)
}

// xmlReference decodes the reference at the start of b ("&...;"): one
// of the five predefined entities or a numeric reference to a Char. It
// returns the character and the reference's length, or 0, 0.
func xmlReference(b []byte) (rune, int) {
	if len(b) > 2 && b[1] == '#' {
		base, k := rune(10), 2
		if b[2] == 'x' {
			base, k = 16, 3
		}
		var r rune
		first := k
	digits:
		for ; k < len(b); k++ {
			d := rune(b[k])
			switch {
			case d >= '0' && d <= '9':
				d -= '0'
			case base == 16 && d >= 'a' && d <= 'f':
				d -= 'a' - 10
			case base == 16 && d >= 'A' && d <= 'F':
				d -= 'A' - 10
			default:
				break digits
			}
			if r = r*base + d; r > unicode.MaxRune {
				return 0, 0
			}
		}
		if k == first || k >= len(b) || b[k] != ';' || !isXMLChar(r) {
			return 0, 0
		}
		return r, k + 1
	}
	for _, e := range xmlEntities {
		if len(b) >= len(e.ref) && string(b[:len(e.ref)]) == e.ref {
			return e.char, len(e.ref)
		}
	}
	return 0, 0
}

var xmlEntities = [...]struct {
	ref  string
	char rune
}{
	{"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&quot;", '"'}, {"&apos;", '\''},
}
