package parser

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/protocols/upnp"
	"starlink/internal/translation"
)

// upnpDescription is the device description the in-repo UPnP stack
// serves, with the friendly name as given.
func upnpDescription(friendlyName string) string {
	return string(upnp.DescriptionXML(friendlyName, "urn:printer", "http://10.0.0.7:5431/svc"))
}

// longDescription is what a real device serves: ~60 short leaves in
// 3 KiB, nested three deep, with a service list.
func longDescription() string {
	var sb strings.Builder
	sb.WriteString(`<?xml version="1.0" encoding="utf-8"?>` + "\n" +
		`<root xmlns="urn:schemas-upnp-org:device-1-0" xmlns:dlna="urn:schemas-dlna-org:device-1-0">` + "\n" +
		" <specVersion><major>1</major><minor>0</minor></specVersion>\n" +
		" <URLBase>http://10.0.0.7:5431/svc</URLBase>\n <device>\n" +
		"  <deviceType>urn:schemas-upnp-org:device:Printer:1</deviceType>\n" +
		"  <friendlyName>Office printer, 2nd floor</friendlyName>\n" +
		"  <manufacturer>starlink-go</manufacturer>\n" +
		"  <dlna:X_DLNADOC>DMP-1.50</dlna:X_DLNADOC>\n  <serviceList>\n")
	for i := 0; i < 13; i++ {
		fmt.Fprintf(&sb, "   <service>\n    <serviceType%d>urn:schemas-upnp-org:service:Print:%d</serviceType%d>\n"+
			"    <serviceId%d>urn:upnp-org:serviceId:%d</serviceId%d>\n    <SCPDURL%d>/scpd/%d.xml</SCPDURL%d>\n"+
			"    <controlURL%d>/ctl/%d</controlURL%d>\n   </service>\n", i, i, i, i, i, i, i, i, i, i, i, i)
	}
	sb.WriteString("  </serviceList>\n </device>\n</root>\n")
	return sb.String()
}

// manyLeaves is a body of n leaves of one shape, 12 bytes each: a text
// message whose field count grows with its size.
func manyLeaves(n int) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<l%02x>v</l%02x>", i, i)
	}
	sb.WriteString("</root>")
	return sb.String()
}

// httpOkWire is an HTTP 200 carrying body as its description.
func httpOkWire(body string) []byte {
	return []byte("HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: " +
		fmt.Sprint(len(body)) + "\r\n\r\n" + body)
}

// xmlBodyCases are bodies with a known outcome; every one also seeds
// FuzzXMLBody. ok says whether the scanner accepts the body (false:
// flattenXMLBody refuses it, whatever the decoder loop would say).
var xmlBodyCases = []struct {
	name, body string
	ok         bool
}{
	{"upnp description", upnpDescription("Printer"), true},
	{"long description", longDescription(), true},
	{"namespaced names", `<s:Envelope xmlns:s="urn:x"><s:Body><u:URLBase xmlns:u="urn:y">http://h/</u:URLBase></s:Body></s:Envelope>`, true},
	{"cdata", `<r><a><![CDATA[1 < 2 && ]] > ok]]></a><b>x<![CDATA[]]>y</b></r>`, true},
	{"comments", `<!-- head --><r><a>left<!-- mid -->right</a><!----></r><!-- tail -->`, true},
	{"entities", `<r><a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a><b attr="&amp;&#65;">&#65;&#x42;&#x00063;</b></r>`, true},
	{"crlf text", "<r>\r\n<a>line one\r\nline two\rline three\r</a>\r\n</r>", true},
	{"cr in cdata", "<r><a><![CDATA[x\r\ny]]></a></r>", true},
	{"mixed content", `<r>text<a>leaf</a>more<b><c>deep</c>tail</b></r>`, true},
	{"self-closing", `<r><a/><b x="1" /><c></c></r>`, true},
	{"duplicate leaves", `<r><a>first</a><a>second</a><b><a>third</a></b></r>`, true},
	{"header collision", `<r><Server>from body</Server><URLBase>u</URLBase></r>`, true},
	{"unicode space trimmed", "<r><a>\u00a0 padded \u2003</a></r>", true},
	{"non-ascii text", `<r><a>Drucker im Büro — 印刷機</a></r>`, true},
	{"pi", `<?xml version='1.0' encoding='UTF-8' standalone="yes"?><?style sheet?><r><a>1</a></r>`, true},
	{"attributes unspaced", `<r a="1"b='2'><c d = "&lt;">v</c></r>`, true},
	{"trailing text after root", `<r><a>1</a></r> trailing`, true},
	{"two roots", `<a>1</a><b>2</b>`, true},
	{"text only", `no markup at all`, true},
	{"numeric ref to CR", `<r><a>x&#13;</a></r>`, true},
	{"cdata end in attribute", `<r a="]]>"><b>1</b></r>`, true},
	{"leaf text dropped by child", `<r><a>x&amp;y<b>1</b></a></r>`, true},

	{"doctype", `<!DOCTYPE r [ <!ENTITY e "v"> ]><r><a>1</a></r>`, false},
	{"directive", `<!><r/>`, false},
	{"custom entity", `<r><a>&nbsp;</a></r>`, false},
	{"latin-1 declaration", `<?xml version="1.0" encoding="ISO-8859-1"?><r><a>1</a></r>`, false},
	{"version 1.1", `<?xml version="1.1"?><r/>`, false},
	{"declaration not first", `<r/><?xml version="1.0"?>`, false},
	{"non-ascii name", `<r><näme>1</näme></r>`, false},
	{"two colons", `<a:b:c>1</a:b:c>`, false},
	{"invalid utf-8", "<r><a>\xff\xfe</a></r>", false},
	{"truncated utf-8", "<r><a>\xe5\x8d</a></r>", false},
	{"invalid utf-8 in comment", "<r><!-- \xff --></r>", false},
	{"control character", "<r><a>\x01</a></r>", false},
	{"ref to control character", `<r><a>&#1;</a></r>`, false},
	{"ref to surrogate", `<r><a>&#xD800;</a></r>`, false},
	{"ref out of range", `<r><a>&#x110000;</a></r>`, false},
	{"ref overflow", `<r><a>&#99999999999999999999;</a></r>`, false},
	{"ref without digits", `<r><a>&#x;</a></r>`, false},
	{"ref without semicolon", `<r><a>&amp</a></r>`, false},
	{"cdata end in text", `<r><a>]]></a></r>`, false},
	{"double hyphen in comment", `<r><!-- a -- b --></r>`, false},
	{"unterminated comment", `<r><!-- a`, false},
	{"unterminated cdata", `<r><![CDATA[x]]`, false},
	{"unterminated pi", `<?pi x`, false},
	{"truncated", `<root><unclosed>`, false},
	{"truncated in tag", `<root><a b="1`, false},
	{"mismatched", `<r><a>1</b></r>`, false},
	{"mismatched prefix", `<x:a>1</y:a>`, false},
	{"end tag longer", `<a>1</ab>`, false},
	{"stray end tag", `</r>`, false},
	{"lt in attribute", `<r a="<"/>`, false},
	{"unquoted attribute", `<r a=1/>`, false},
	{"attribute without value", `<r a/>`, false},
	{"space before name", `< r/>`, false},
	{"lone lt", `<`, false},
}

// headerLabel is a field the message carries before the body is
// flattened; a leaf of the same name must not replace it.
const headerLabel = "Server"

// decodeXMLLeaves is flattenXMLBody over encoding/xml's token stream,
// the oracle the scanner is held to: it accepts a superset of what the
// scanner accepts (directives, non-ASCII names) and words its own
// errors.
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
					msg.Add(msg.NewField(label, message.Str(strings.TrimSpace(top.text.String()))))
				}
			}
		}
	}
	return nil
}

// checkXMLBody holds flattenXMLBody and the scanner to the decoder loop
// on one body and reports whether the scanner accepted it. Two
// properties: when the scanner accepts, the oracle accepts with the
// same fields; when the oracle rejects, flattenXMLBody rejects. And a
// scanner that declines leaves the message as it was.
func checkXMLBody(t testing.TB, body []byte) (ok bool) {
	t.Helper()
	fresh := func() *message.Message {
		m := message.New("HTTP", "HTTPOk")
		m.AddPrimitive(headerLabel, message.Str("from header"))
		return m
	}
	trimmed := bytes.TrimSpace(body)

	want := fresh()
	var wantErr error
	if len(trimmed) > 0 {
		wantErr = decodeXMLLeaves(trimmed, want)
	}
	got := fresh()
	gotErr := flattenXMLBody(body, string(body), got, new(labelIndex))
	alone := fresh()
	if len(trimmed) > 0 {
		ok, _ = scanXMLLeaves(trimmed, string(trimmed), alone, new(labelIndex))
	}
	switch {
	case wantErr != nil && gotErr == nil:
		t.Fatalf("body %q: flattenXMLBody accepts what the decoder loop rejects: %v", body, wantErr)
	case ok && wantErr != nil && !errors.Is(wantErr, errTooManyFields):
		t.Fatalf("body %q: scanner accepts what the decoder loop rejects: %v", body, wantErr)
	case ok && (!errors.Is(gotErr, wantErr) || !got.Equal(want) || !alone.Equal(want)):
		t.Fatalf("body %q: error %v, decoder loop says %v\n got  %s\n alone %s\n want %s", body, gotErr, wantErr, got, alone, want)
	case !ok && alone.Len() != 1:
		t.Fatalf("body %q: scanner gave up but left %s", body, alone)
	case !ok && len(trimmed) > 0 && gotErr == nil:
		t.Fatalf("body %q: scanner gave up but flattenXMLBody accepts", body)
	}
	return ok
}

// TestXMLBodyScannerAcceptsRepositoryBodies is why a body the scanner
// declines can be a parse error: it accepts every body the repository
// produces — the UPnP stack's description with the friendly name padded
// 0 to 4096 bytes, as the benchmark pads it, and the document the
// urlbase-xml translation function builds, escapes included.
func TestXMLBodyScannerAcceptsRepositoryBodies(t *testing.T) {
	check := func(body []byte, leaves int, urlBase string) {
		t.Helper()
		msg := message.New("HTTP", "HTTPOk")
		if err := flattenXMLBody(body, string(body), msg, new(labelIndex)); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
		if v, ok := msg.Field("URLBase"); !ok || msg.Len() != leaves || v.Value.Text() != urlBase {
			t.Fatalf("body %q: fields %s, want %d leaves and URLBase %q", body, msg, leaves, urlBase)
		}
	}
	const url = "service:printer://10.0.0.9:515"
	for pad := 0; pad <= 4096; pad++ {
		name := "Starlink bench printer " + strings.Repeat("x", pad)
		check(upnp.DescriptionXML(name, "urn:printer", url), 6, url)
	}
	urlbaseXML, err := translation.NewFuncRegistry().Lookup("urlbase-xml")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{url, "http://h/?a=1&b=<2>", ""} {
		v, err := urlbaseXML(message.Str(u))
		if err != nil {
			t.Fatal(err)
		}
		check([]byte(v.Text()), 1, u)
	}
}

func TestXMLBodyScannerMatchesDecoder(t *testing.T) {
	for _, tc := range xmlBodyCases {
		t.Run(tc.name, func(t *testing.T) {
			if ok := checkXMLBody(t, []byte(tc.body)); ok != tc.ok {
				t.Errorf("scanner accepted = %v, want %v", ok, tc.ok)
			}
		})
	}
}

// TestXMLBodyFlatteningContract pins the field list itself, so the
// scanner and its oracle cannot drift together.
func TestXMLBodyFlatteningContract(t *testing.T) {
	msg := message.New("HTTP", "HTTPOk")
	msg.AddPrimitive(headerLabel, message.Str("from header"))
	body := "<?xml version=\"1.0\"?>\r\n<root>ignored\r\n" +
		" <Server>from body</Server>\r\n" +
		" <u:URLBase xmlns:u=\"urn:x\"> http://h/?a=1&amp;b=2 </u:URLBase>\r\n" +
		" <note>one<!-- c -->&#32;two<![CDATA[ <3> ]]>\r\n</note>\r\n" +
		" <empty/>\r\n <note>again</note>\r\n" +
		" <box><inner>deep</inner>tail</box>\r\n</root>"
	if ok, err := scanXMLLeaves([]byte(body), body, msg, new(labelIndex)); !ok || err != nil {
		t.Fatalf("scanner gave up on a body inside its subset: %v", err)
	}
	want := [][2]string{
		{headerLabel, "from header"},
		{"URLBase", "http://h/?a=1&b=2"},
		{"note", "one two <3>"},
		{"empty", ""},
		{"inner", "deep"},
	}
	if msg.Len() != len(want) {
		t.Fatalf("fields = %s", msg)
	}
	for i, f := range msg.Fields() {
		if v, ok := f.Value.AsString(); f.Label != want[i][0] || v != want[i][1] || !ok {
			t.Errorf("field %d = %q %s, want %q %q", i, f.Label, f.Value.Kind(), want[i][0], want[i][1])
		}
	}
}

// TestXMLBodyScannerSpills covers documents deeper and with more leaves
// than the scanner's stack arrays, and values longer than its scratch.
func TestXMLBodyScannerSpills(t *testing.T) {
	var sb strings.Builder
	const depth, leaves = 100, 200
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "<d%d>", i)
	}
	for i := 0; i < leaves; i++ {
		fmt.Fprintf(&sb, "<l%d>%s&amp;%d</l%d>", i, strings.Repeat("v", 40), i, i)
	}
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "</d%d>", i)
	}
	if !checkXMLBody(t, []byte(sb.String())) {
		t.Fatal("scanner gave up on a deep document")
	}
}

// TestXMLBodyScannerGenerated runs the comparison over documents built
// from a small grammar — nested elements, attributes, references, CDATA,
// comments, line ends, non-ASCII text, the odd malformed piece — one in
// five then damaged by a byte edit, so that most are inside the
// scanner's subset and the rest sit right at its edges.
func TestXMLBodyScannerGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	names := []string{"a", "b", "n:a", headerLabel, "URLBase", "a.b", "_x", ":", "a:", "x-1"}
	pieces := []string{"text", " ", "\r\n", "\r", "\n", "&amp;", "&lt;", "&#x41;", "&#13;", "&#32;", "]]", "]", ">",
		"\u00e9", "\u2003", "\u00a0", "<![CDATA[ x ]]>", "<![CDATA[]]>", "<![CDATA[\r\n<&>]]]>", "<!-- c -->", "<!---->",
		"<?pi x?>", "'", "\"", "\t", "1"}
	bad := []string{"&bad;", "&", "<", "]]>", "\x00", "\xc3", "<!DOCTYPE a>", "--", "<!", "\uFFFE", "&#0;", "&#xD800;"}
	attrs := []string{"", " x='1'", ` y="&lt;&#65;"`, " xmlns:n='u'", " a='1'b='2'", " z = 'q' ", "  ", " k=']]>'", " k='>'"}
	var element func(b []byte, depth int) []byte
	element = func(b []byte, depth int) []byte {
		name := names[r.Intn(len(names))]
		b = append(append(append(b, '<'), name...), attrs[r.Intn(len(attrs))]...)
		if r.Intn(6) == 0 {
			return append(b, "/>"...)
		}
		b = append(b, '>')
		for n := r.Intn(5); n > 0; n-- {
			switch k := r.Intn(10); {
			case k < 6:
				b = append(b, pieces[r.Intn(len(pieces))]...)
			case k < 9 && depth < 5:
				b = element(b, depth+1)
			case r.Intn(8) == 0:
				b = append(b, bad[r.Intn(len(bad))]...)
			}
		}
		return append(append(append(b, "</"...), name...), '>')
	}
	const docs = 20000
	accepted := 0
	for i := 0; i < docs; i++ {
		var b []byte
		if r.Intn(3) == 0 {
			b = append(b, "<?xml version=\"1.0\" encoding='UTF-8'?>\n"...)
		}
		b = element(b, 0)
		if r.Intn(4) == 0 {
			b = element(b, 0)
		}
		if r.Intn(5) == 0 {
			switch k := r.Intn(len(b)); r.Intn(3) {
			case 0:
				b[k] = byte(r.Intn(256))
			case 1:
				b = append(b[:k], b[k+1:]...)
			case 2:
				b = b[:k]
			}
		}
		if checkXMLBody(t, b) {
			accepted++
		}
	}
	if accepted < docs/2 {
		t.Errorf("scanner accepted %d of %d generated documents; the generator no longer exercises it", accepted, docs)
	}
}

// charKinds wraps a run of characters as each kind xmlChars validates,
// inside leaf a: character data, CDATA, an attribute value, a comment.
var charKinds = [...]struct{ name, open, close string }{
	{"text", "<r><a>", "</a></r>"},
	{"CDATA", "<r><a><![CDATA[", "]]></a></r>"},
	{"attribute", `<r><a k="`, `">v</a></r>`},
	{"comment", "<r><a><!--", "-->v</a></r>"},
}

// attentionPieces are the characters xmlChars cannot pass over a word at
// a time, each with the value text and CDATA make of it ("" where they
// refuse it) and whether an attribute value and a comment accept it.
var attentionPieces = []struct {
	raw, text, cdata string
	markup           bool
}{
	{"&amp;", "&", "&amp;", true},
	{"&#65;", "A", "&#65;", true},
	{"&#x1F600;", "\U0001F600", "&#x1F600;", true},
	{"]]>", "", "", true}, // in CDATA it ends the section early, and the rest is text
	{"\r", "\n", "\n", true},
	{"\r\n", "\n", "\n", true},
	{"\t", "\t", "\t", true},
	{"\x01", "", "", false},
	{"\u00e9", "\u00e9", "\u00e9", true},
	{"\u20ac", "\u20ac", "\u20ac", true},
	{"\U0001F600", "\U0001F600", "\U0001F600", true},
	{"\xff", "", "", false},
	{"\uFFFE", "", "", false},
}

// wordPad surrounds a piece: distinct characters, so that a misplaced
// byte shows in the value.
const wordPad = "0123456789abcdefghijklmnopqrstuvwxyzABCD"

// TestXMLCharsWordBoundaries holds xmlChars' eight-byte step to its
// per-byte one. First the word test itself, over every pair of bytes at
// every pair of positions: it passes a word exactly when no byte needs
// attention, and its lowest flag is the first byte that does. Then each
// character that needs attention, at each offset 0-16 of a 40-byte run
// of each kind: the scanner agrees with the decoder loop and gives the
// leaf its expected value.
func TestXMLCharsWordBoundaries(t *testing.T) {
	needs := func(b byte) bool { return b < 0x20 || b >= 0x80 || b == '&' || b == '<' || b == '>' }
	word := []byte("xxxxxxxx")
	for k1 := range 8 {
		for k2 := k1 + 1; k2 < 8; k2++ {
			for b1 := range 256 {
				for b2 := range 256 {
					word[k1], word[k2] = byte(b1), byte(b2)
					first := 8
					if needs(byte(b2)) {
						first = k2
					}
					if needs(byte(b1)) {
						first = k1
					}
					m := xmlAttention(binary.LittleEndian.Uint64(word))
					if got := bits.TrailingZeros64(m) / 8; got != first {
						t.Fatalf("word %q: first byte flagged %d, want %d", word, got, first)
					}
				}
			}
			word[k1], word[k2] = 'x', 'x'
		}
	}

	for _, kind := range charKinds {
		for _, pc := range attentionPieces {
			for off := 0; off <= 16; off++ {
				want, ok := "v", pc.markup // the leaf's text is outside the run
				switch kind.name {
				case "text":
					want, ok = strings.TrimSpace(wordPad[:off]+pc.text+wordPad[off:]), pc.text != ""
				case "CDATA":
					want, ok = strings.TrimSpace(wordPad[:off]+pc.cdata+wordPad[off:]), pc.cdata != ""
				}
				body := []byte(kind.open + wordPad[:off] + pc.raw + wordPad[off:] + kind.close)
				if got := checkXMLBody(t, body); got != ok {
					t.Fatalf("%s %q at offset %d: scanner accepted = %v, want %v", kind.name, pc.raw, off, got, ok)
				}
				if !ok {
					continue
				}
				msg := message.New("HTTP", "HTTPOk")
				if err := flattenXMLBody(body, string(body), msg, new(labelIndex)); err != nil {
					t.Fatal(err)
				}
				if f, _ := msg.Field("a"); f == nil || f.Value.Text() != want {
					t.Fatalf("%s %q at offset %d: a = %v, want %q", kind.name, pc.raw, off, f, want)
				}
			}
		}
	}
}

func FuzzXMLBody(f *testing.F) {
	for _, tc := range xmlBodyCases {
		f.Add([]byte(tc.body))
	}
	for _, kind := range charKinds {
		for _, raw := range []string{"&amp;", "\r\n", "\u20ac", "]]>"} {
			f.Add([]byte(kind.open + wordPad[:7] + raw + wordPad[7:] + kind.close))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkXMLBody(t, body)
	})
}

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a quarter of what it is given, so allocation pins over pooled
// messages and field blocks do not hold.
var raceEnabled bool

// TestParseHTTPOkAllocs pins the allocations of a whole Parse of an
// HTTP 200 carrying a device description, on both shapes a description
// takes: one long text run (the benchmark's padded friendly name) and
// many short leaves. The scanner's state and the label index live in
// the parse's frames, so the message's one copy is all it allocates.
func TestParseHTTPOkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	spec, err := mdl.ParseXMLString(httpMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(spec, nil)
	for _, tc := range []struct{ name, body string }{
		{"one 4 KiB text run", upnpDescription("Starlink bench printer " + strings.Repeat("x", 4096))},
		{"60 leaves in 3 KiB", longDescription()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := httpOkWire(tc.body)
			allocs := testing.AllocsPerRun(200, func() {
				msg, err := p.Parse(wire)
				if err != nil {
					t.Fatal(err)
				}
				msg.Release()
			})
			if allocs > 1 {
				t.Errorf("Parse allocates %.0f times, want at most 1 (the message's copy)", allocs)
			}
		})
	}
}

// TestParseHTTPOkEntityAllocs holds the path that expands references,
// which no benchmark body takes: an HTTP 200 whose leaves carry &amp;
// and &#NN; allocates what the same body with plain text in their place
// does, plus the one string that every rebuilt value shares.
func TestParseHTTPOkEntityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	spec, err := mdl.ParseXMLString(httpMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(spec, nil)
	body := func(amp, hash string) string {
		return strings.NewReplacer(
			"Office printer, 2nd floor", "Office printer "+amp+" scanner, floor "+hash+"2",
			"starlink-go", "starlink "+amp+" go",
		).Replace(longDescription())
	}
	allocs := func(body, name string) float64 {
		wire := httpOkWire(body)
		msg, err := p.Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		if f, _ := msg.Field("friendlyName"); f == nil || f.Value.Text() != name {
			t.Fatalf("friendlyName = %v, want %q", f, name)
		}
		msg.Release()
		return testing.AllocsPerRun(200, func() {
			msg, err := p.Parse(wire)
			if err != nil {
				t.Fatal(err)
			}
			msg.Release()
		})
	}
	plain := allocs(body("and", "no"), "Office printer and scanner, floor no2")
	refs := allocs(body("&amp;", "&#35;"), "Office printer & scanner, floor #2")
	if refs != plain+1 {
		t.Errorf("Parse allocates %.0f times with references, %.0f without; want one more", refs, plain)
	}
}

// BenchmarkParseHTTPOk is a whole Parse of an HTTP 200 on the three
// shapes a description takes: the benchmark's one 4 KiB text run, a real
// device's 60 short leaves, and 250 leaves, the most a text message may
// carry.
func BenchmarkParseHTTPOk(b *testing.B) {
	spec, err := mdl.ParseXMLString(httpMDL)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := New(spec, nil)
	for _, bc := range []struct{ name, body string }{
		{"4KiBRun", upnpDescription("Starlink bench printer " + strings.Repeat("x", 4096))},
		{"60Leaves", longDescription()},
		{"250Leaves", manyLeaves(250)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			wire := httpOkWire(bc.body)
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				msg, err := p.Parse(wire)
				if err != nil {
					b.Fatal(err)
				}
				msg.Release()
			}
		})
	}
}
