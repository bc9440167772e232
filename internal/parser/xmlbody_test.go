package parser

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// upnpDescription is the device description the in-repo UPnP stack
// serves (upnp.DescriptionXML), with the friendly name as given.
func upnpDescription(friendlyName string) string {
	return `<?xml version="1.0"?>` + "\n" +
		`<root xmlns="urn:schemas-upnp-org:device-1-0">` + "\n" +
		" <specVersion><major>1</major><minor>0</minor></specVersion>\n" +
		" <URLBase>http://10.0.0.7:5431/svc</URLBase>\n" +
		" <device>\n" +
		"  <deviceType>urn:printer</deviceType>\n" +
		"  <friendlyName>" + friendlyName + "</friendlyName>\n" +
		"  <manufacturer>starlink-go</manufacturer>\n" +
		" </device>\n" +
		"</root>\n"
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

// xmlBodyCases are bodies with a known outcome; every one also seeds
// FuzzXMLBody. fast says whether the scanner itself must accept the
// body (false: it must leave it to the decoder, whatever that decides).
var xmlBodyCases = []struct {
	name, body string
	fast       bool
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

// checkXMLBody holds flattenXMLBody, and the scanner alone, to the
// decoder loop on one body and reports whether the scanner accepted it.
func checkXMLBody(t testing.TB, body []byte) (fast bool) {
	t.Helper()
	fresh := func() *message.Message {
		m := message.New("HTTP", "HTTPOk")
		m.AddPrimitive(headerLabel, "String", message.Str("from header"))
		return m
	}
	trimmed := bytes.TrimSpace(body)

	want := fresh()
	var wantErr error
	if len(trimmed) > 0 {
		wantErr = decodeXMLLeaves(trimmed, want)
	}
	got := fresh()
	gotErr := flattenXMLBody(body, string(body), got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("body %q: error %v, decoder loop says %v", body, gotErr, wantErr)
	}
	// Compared on rejection too: a body the scanner gave up on must leave
	// what the decoder loop alone leaves.
	if !got.Equal(want) {
		t.Fatalf("body %q:\n got  %s\n want %s", body, got, want)
	}

	alone := fresh()
	if len(trimmed) > 0 {
		fast, _ = scanXMLLeaves(trimmed, string(trimmed), alone)
	}
	switch {
	case fast && wantErr != nil:
		t.Fatalf("body %q: scanner accepts what the decoder loop rejects: %v", body, wantErr)
	case fast && !alone.Equal(want):
		t.Fatalf("body %q: scanner alone\n got  %s\n want %s", body, alone, want)
	case !fast && alone.Len() != 1:
		t.Fatalf("body %q: scanner gave up but left %s", body, alone)
	}
	return fast
}

func TestXMLBodyScannerMatchesDecoder(t *testing.T) {
	for _, tc := range xmlBodyCases {
		t.Run(tc.name, func(t *testing.T) {
			if fast := checkXMLBody(t, []byte(tc.body)); fast != tc.fast {
				t.Errorf("scanner accepted = %v, want %v", fast, tc.fast)
			}
		})
	}
}

// TestXMLBodyFlatteningContract pins the field list itself, so the two
// implementations cannot drift together.
func TestXMLBodyFlatteningContract(t *testing.T) {
	msg := message.New("HTTP", "HTTPOk")
	msg.AddPrimitive(headerLabel, "String", message.Str("from header"))
	body := "<?xml version=\"1.0\"?>\r\n<root>ignored\r\n" +
		" <Server>from body</Server>\r\n" +
		" <u:URLBase xmlns:u=\"urn:x\"> http://h/?a=1&amp;b=2 </u:URLBase>\r\n" +
		" <note>one<!-- c -->&#32;two<![CDATA[ <3> ]]>\r\n</note>\r\n" +
		" <empty/>\r\n <note>again</note>\r\n" +
		" <box><inner>deep</inner>tail</box>\r\n</root>"
	if ok, err := scanXMLLeaves([]byte(body), body, msg); !ok || err != nil {
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
		if v, _ := f.Value.AsString(); f.Label != want[i][0] || v != want[i][1] || f.Type != "String" {
			t.Errorf("field %d = %s %q %q, want %q %q", i, f.Type, f.Label, v, want[i][0], want[i][1])
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
	fast := 0
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
			fast++
		}
	}
	if fast < docs/2 {
		t.Errorf("scanner accepted %d of %d generated documents; the generator no longer exercises it", fast, docs)
	}
}

func FuzzXMLBody(f *testing.F) {
	for _, tc := range xmlBodyCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkXMLBody(t, body)
	})
}

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a quarter of what it is given, so allocation pins over pooled
// fields do not hold.
var raceEnabled bool

// TestParseHTTPOkAllocs pins the allocations of a whole Parse of an
// HTTP 200 carrying a device description, on both shapes a description
// takes: one long text run (the benchmark's padded friendly name) and
// many short leaves.
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
			wire := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: " +
				fmt.Sprint(len(tc.body)) + "\r\n\r\n" + tc.body)
			allocs := testing.AllocsPerRun(200, func() {
				msg, err := p.Parse(wire)
				if err != nil {
					t.Fatal(err)
				}
				msg.Release()
			})
			if allocs > 25 {
				t.Errorf("Parse allocates %.0f times, want at most 25", allocs)
			}
		})
	}
}
