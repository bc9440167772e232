package parser

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

const slpMDL = `
<MDL protocol="SLP" dialect="binary">
 <Types>
  <Version>Integer</Version>
  <FunctionID>Integer</FunctionID>
  <MessageLength>Integer[f-totallength()]</MessageLength>
  <reserved>Integer</reserved>
  <NextExtOffset>Integer</NextExtOffset>
  <XID>Integer</XID>
  <LangTagLen>Integer</LangTagLen>
  <LangTag>String</LangTag>
  <PRLength>Integer</PRLength>
  <PRStringTable>String</PRStringTable>
  <SRVTypeLength>Integer</SRVTypeLength>
  <SRVType>String</SRVType>
  <ErrorCode>Integer</ErrorCode>
  <URLCount>Integer</URLCount>
  <URLEntry>String</URLEntry>
  <URLLength>Integer[f-length(URLEntry)]</URLLength>
 </Types>
 <Header type="SLP">
  <Version>8</Version>
  <FunctionID>8</FunctionID>
  <MessageLength>24</MessageLength>
  <reserved>16</reserved>
  <NextExtOffset>24</NextExtOffset>
  <XID>16</XID>
  <LangTagLen>16</LangTagLen>
  <LangTag>LangTagLen</LangTag>
 </Header>
 <Message type="SLPSrvRequest" mandatory="SRVType">
  <Rule>FunctionID=1</Rule>
  <PRLength>16</PRLength>
  <PRStringTable>PRLength</PRStringTable>
  <SRVTypeLength>16</SRVTypeLength>
  <SRVType>SRVTypeLength</SRVType>
 </Message>
 <Message type="SLPSrvReply" mandatory="URLEntry,XID">
  <Rule>FunctionID=2</Rule>
  <ErrorCode>16</ErrorCode>
  <URLCount>16</URLCount>
  <URLLength>16</URLLength>
  <URLEntry>URLLength</URLEntry>
 </Message>
</MDL>`

// buildSLPRequest hand-assembles an SLP SrvRequest wire message.
func buildSLPRequest(t *testing.T, xid int, srvType string) []byte {
	t.Helper()
	lang := "en"
	var b []byte
	b = append(b, 2, 1)                    // Version, FunctionID=1
	b = append(b, 0, 0, 0)                 // MessageLength (patched below)
	b = append(b, 0, 0)                    // reserved
	b = append(b, 0, 0, 0)                 // NextExtOffset
	b = append(b, byte(xid>>8), byte(xid)) // XID
	b = append(b, 0, byte(len(lang)))
	b = append(b, lang...)
	b = append(b, 0, 0) // PRLength=0
	b = append(b, byte(len(srvType)>>8), byte(len(srvType)))
	b = append(b, srvType...)
	total := len(b)
	b[2], b[3], b[4] = byte(total>>16), byte(total>>8), byte(total)
	return b
}

func TestParseSLPRequest(t *testing.T) {
	spec, err := mdl.ParseXMLString(slpMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := buildSLPRequest(t, 0x0102, "service:printer")
	msg, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Protocol != "SLP" || msg.Name != "SLPSrvRequest" {
		t.Fatalf("msg = %s/%s", msg.Protocol, msg.Name)
	}
	if f, _ := msg.Field("XID"); mustInt(t, f) != 0x0102 {
		t.Errorf("XID = %d", mustInt(t, f))
	}
	if f, _ := msg.Field("SRVType"); mustStr(t, f) != "service:printer" {
		t.Errorf("SRVType = %q", mustStr(t, f))
	}
	if f, _ := msg.Field("LangTag"); mustStr(t, f) != "en" {
		t.Errorf("LangTag = %q", mustStr(t, f))
	}
	f, _ := msg.Field("SRVType")
	if !f.Mandatory {
		t.Error("SRVType should be mandatory")
	}
	if f, _ := msg.Field("MessageLength"); mustInt(t, f) != int64(len(wire)) {
		t.Errorf("MessageLength = %d, wire = %d", mustInt(t, f), len(wire))
	}
}

func TestParseSLPTruncated(t *testing.T) {
	spec, _ := mdl.ParseXMLString(slpMDL)
	p, _ := New(spec, nil)
	wire := buildSLPRequest(t, 7, "service:x")
	for _, cut := range []int{1, 5, 12, 17, len(wire) - 1} {
		if _, err := p.Parse(wire[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
}

func TestParseSLPUnknownFunctionID(t *testing.T) {
	spec, _ := mdl.ParseXMLString(slpMDL)
	p, _ := New(spec, nil)
	wire := buildSLPRequest(t, 7, "service:x")
	wire[1] = 99 // unknown FunctionID
	if _, err := p.Parse(wire); err == nil || !strings.Contains(err.Error(), "no message rule") {
		t.Fatalf("err = %v", err)
	}
}

const ssdpMDL = `
<MDL protocol="SSDP" dialect="text">
 <Types>
  <Method>String</Method>
  <URI>String</URI>
  <Version>String</Version>
  <ST>String</ST>
  <MX>Integer</MX>
  <LOCATION>URL</LOCATION>
 </Types>
 <Header type="SSDP">
  <Method>32</Method>
  <URI>32</URI>
  <Version>13,10</Version>
  <Fields>13,10:58</Fields>
 </Header>
 <Message type="SSDPMSearch" mandatory="ST">
  <Rule>Method=M-SEARCH</Rule>
 </Message>
 <Message type="SSDPResponse" mandatory="LOCATION">
  <Rule>Method=HTTP/1.1</Rule>
 </Message>
</MDL>`

func TestParseSSDPMSearch(t *testing.T) {
	spec, err := mdl.ParseXMLString(ssdpMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := "M-SEARCH * HTTP/1.1\r\n" +
		"HOST: 239.255.255.250:1900\r\n" +
		"MAN: \"ssdp:discover\"\r\n" +
		"MX: 1\r\n" +
		"ST: urn:printer\r\n" +
		"\r\n"
	msg, err := p.Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "SSDPMSearch" {
		t.Fatalf("name = %q", msg.Name)
	}
	if f, _ := msg.Field("ST"); mustStr(t, f) != "urn:printer" {
		t.Errorf("ST = %q", mustStr(t, f))
	}
	if f, _ := msg.Field("MX"); mustInt(t, f) != 1 {
		t.Errorf("MX = %d", mustInt(t, f))
	}
	if f, _ := msg.Field("Method"); mustStr(t, f) != "M-SEARCH" {
		t.Errorf("Method = %q", mustStr(t, f))
	}
}

// TestParseTextIntegerStrict pins a deliberate strictness decision: an
// Integer-typed text token with trailing junk ("3;ext") is a parse
// error, not a best-effort 3. The fmt.Sscanf-based parser accepted the
// leading digits silently; a protocol bridge should not guess at
// malformed wire content.
func TestParseTextIntegerStrict(t *testing.T) {
	spec, err := mdl.ParseXMLString(ssdpMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := "M-SEARCH * HTTP/1.1\r\n" +
		"MX: 3;ext\r\n" +
		"ST: urn:printer\r\n" +
		"\r\n"
	if _, err := p.Parse([]byte(wire)); err == nil {
		t.Fatal("malformed integer token should fail the parse")
	}
}

// TestParseIntBytesMatchesStrconv pins parseIntBytes against the
// strconv behavior its doc comment claims, including the int64
// boundaries.
func TestParseIntBytesMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "1", "-1", "+7", " 42 ", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "", " ", "+", "-", "3;ext", "1.5", "0x10",
	} {
		want, wantErr := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		got, gotErr := parseIntBytes([]byte(s))
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseIntBytes(%q) err = %v, strconv err = %v", s, gotErr, wantErr)
			continue
		}
		if wantErr == nil && got != want {
			t.Errorf("parseIntBytes(%q) = %d, strconv = %d", s, got, want)
		}
	}
}

func TestParseSSDPResponseStructuredURL(t *testing.T) {
	spec, _ := mdl.ParseXMLString(ssdpMDL)
	p, _ := New(spec, nil)
	wire := "HTTP/1.1 200 OK\r\n" +
		"CACHE-CONTROL: max-age=1800\r\n" +
		"LOCATION: http://10.0.0.7:5431/desc.xml\r\n" +
		"ST: urn:printer\r\n" +
		"USN: uuid:1234\r\n" +
		"\r\n"
	msg, err := p.Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "SSDPResponse" {
		t.Fatalf("name = %q", msg.Name)
	}
	// LOCATION must explode into the structured URL field of §III-A.
	port, ok := msg.Path("LOCATION.port")
	if !ok {
		t.Fatal("LOCATION.port missing")
	}
	if mustInt(t, port) != 5431 {
		t.Errorf("port = %d", mustInt(t, port))
	}
	addr, _ := msg.Path("LOCATION.address")
	if mustStr(t, addr) != "10.0.0.7" {
		t.Errorf("address = %q", mustStr(t, addr))
	}
	res, _ := msg.Path("LOCATION.resource")
	if mustStr(t, res) != "/desc.xml" {
		t.Errorf("resource = %q", mustStr(t, res))
	}
}

func TestParseTextMissingSeparator(t *testing.T) {
	spec, _ := mdl.ParseXMLString(ssdpMDL)
	p, _ := New(spec, nil)
	if _, err := p.Parse([]byte("M-SEARCH * HTTP/1.1\r\nBADLINE\r\n\r\n")); err == nil {
		t.Fatal("line without colon should fail")
	}
	if _, err := p.Parse([]byte("M-SEARCH")); err == nil {
		t.Fatal("missing delimiters should fail")
	}
}

// A header line may not restate a field of the first line. One named
// Method used to overwrite the request line's method before the rule was
// evaluated, so an M-SEARCH carrying "Method: HTTP/1.1" parsed as an
// SSDPResponse while its first line, what Classify reads, said M-SEARCH.
func TestHeaderLineMayNotRestatePositionalField(t *testing.T) {
	spec, _ := mdl.ParseXMLString(ssdpMDL)
	p, _ := New(spec, nil)
	wire := []byte("M-SEARCH * HTTP/1.1\r\nMethod: HTTP/1.1\r\nST: urn:x\r\n\r\n")
	if msg, err := p.Parse(wire); err == nil {
		t.Fatalf("parsed as %s, want an error", msg.Name)
	}
	if name, ok := p.Classify(wire); !ok || name != "SSDPMSearch" {
		t.Errorf("Classify = %q, %v; want SSDPMSearch from the first line", name, ok)
	}
}

const httpMDL = `
<MDL protocol="HTTP" dialect="text">
 <Types>
  <Method>String</Method>
  <URI>String</URI>
  <Version>String</Version>
  <Content-Length>Integer</Content-Length>
 </Types>
 <Header type="HTTP">
  <Method>32</Method>
  <URI>32</URI>
  <Version>13,10</Version>
  <Fields>13,10:58</Fields>
 </Header>
 <Message type="HTTPGet">
  <Rule>Method=GET</Rule>
 </Message>
 <Message type="HTTPOk" body="xml" mandatory="URLBase">
  <Rule>Method=HTTP/1.1</Rule>
 </Message>
</MDL>`

func TestParseHTTPOkXMLBody(t *testing.T) {
	spec, err := mdl.ParseXMLString(httpMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(spec, nil)
	body := "<root><device><friendlyName>Printer</friendlyName>" +
		"<URLBase>http://10.0.0.7:5431/svc</URLBase></device></root>"
	wire := "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n\r\n" + body
	msg, err := p.Parse([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "HTTPOk" {
		t.Fatalf("name = %q", msg.Name)
	}
	f, ok := msg.Field("URLBase")
	if !ok {
		t.Fatal("URLBase missing")
	}
	if mustStr(t, f) != "http://10.0.0.7:5431/svc" {
		t.Errorf("URLBase = %q", mustStr(t, f))
	}
	if f, _ := msg.Field("friendlyName"); mustStr(t, f) != "Printer" {
		t.Errorf("friendlyName = %q", mustStr(t, f))
	}
	if _, ok := msg.Field("Body"); !ok {
		t.Error("raw Body should be preserved")
	}
}

func TestParseXMLBodyMalformed(t *testing.T) {
	spec, _ := mdl.ParseXMLString(httpMDL)
	p, _ := New(spec, nil)
	wire := "HTTP/1.1 200 OK\r\n\r\n<root><unclosed>"
	if _, err := p.Parse([]byte(wire)); err == nil {
		t.Fatal("malformed xml body should fail")
	}
}

const dnsMDL = `
<MDL protocol="mDNS" dialect="binary">
 <Types>
  <ID>Integer</ID>
  <Flags>Integer</Flags>
  <QDCount>Integer</QDCount>
  <ANCount>Integer</ANCount>
  <NSCount>Integer</NSCount>
  <ARCount>Integer</ARCount>
  <DomainName>FQDN</DomainName>
  <QType>Integer</QType>
  <QClass>Integer</QClass>
  <AName>FQDN</AName>
  <AType>Integer</AType>
  <AClass>Integer</AClass>
  <TTL>Integer</TTL>
  <RDLength>Integer</RDLength>
  <RDATA>String</RDATA>
 </Types>
 <Header type="mDNS">
  <ID>16</ID>
  <Flags>16</Flags>
  <QDCount>16</QDCount>
  <ANCount>16</ANCount>
  <NSCount>16</NSCount>
  <ARCount>16</ARCount>
 </Header>
 <Message type="DNSQuestion" mandatory="DomainName">
  <Rule>Flags=0</Rule>
  <DomainName></DomainName>
  <QType>16</QType>
  <QClass>16</QClass>
 </Message>
 <Message type="DNSResponse" mandatory="RDATA">
  <Rule>Flags=33792</Rule>
  <AName></AName>
  <AType>16</AType>
  <AClass>16</AClass>
  <TTL>32</TTL>
  <RDLength>16</RDLength>
  <RDATA>RDLength</RDATA>
 </Message>
</MDL>`

func TestParseDNSQuestionFQDN(t *testing.T) {
	spec, err := mdl.ParseXMLString(dnsMDL)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(spec, nil)
	var wire []byte
	wire = append(wire, 0x12, 0x34) // ID
	wire = append(wire, 0, 0)       // Flags = query
	wire = append(wire, 0, 1, 0, 0, 0, 0, 0, 0)
	wire = append(wire, 7)
	wire = append(wire, "printer"...)
	wire = append(wire, 5)
	wire = append(wire, "local"...)
	wire = append(wire, 0)
	wire = append(wire, 0, 12, 0, 1) // QType=PTR QClass=IN
	msg, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "DNSQuestion" {
		t.Fatalf("name = %q", msg.Name)
	}
	if f, _ := msg.Field("DomainName"); mustStr(t, f) != "printer.local" {
		t.Errorf("DomainName = %q", mustStr(t, f))
	}
	if f, _ := msg.Field("QType"); mustInt(t, f) != 12 {
		t.Errorf("QType = %d", mustInt(t, f))
	}
}

// A byte field at an unaligned bit position cannot be a substring of
// the message's copy; it is read into a copy of its own.
func TestParseUnalignedStringIsCopied(t *testing.T) {
	spec, err := mdl.ParseXMLString(`
<MDL protocol="NIB" dialect="binary">
 <Types>
  <Kind>Integer</Kind>
  <Tag>String</Tag>
  <Pad>Integer</Pad>
 </Types>
 <Header type="NIB">
  <Kind>4</Kind>
  <Tag>16</Tag>
  <Pad>4</Pad>
 </Header>
 <Message type="NIBTag">
  <Rule>Kind=1</Rule>
 </Message>
</MDL>`)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(spec, nil)
	wire := []byte{0x16, 0x16, 0x2f} // Kind 1, Tag "ab" four bits in, Pad 15
	msg, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	defer msg.Release()
	clear(wire)
	if f, _ := msg.Field("Tag"); mustStr(t, f) != "ab" {
		t.Errorf("Tag = %q, want \"ab\"", mustStr(t, f))
	}
	if f, _ := msg.Field("Pad"); mustInt(t, f) != 15 {
		t.Errorf("Pad = %d, want 15", mustInt(t, f))
	}
}

// A text message has at most maxTextFields top-level fields. Without the
// bound each distinct label cost a scan of the ones before it: a 64 KiB
// datagram of header lines, or an HTTP body of XML leaves, took 0.1-0.2 s
// to parse and held its worker for as long. Past the bound, parsing is
// an error, and it allocates in proportion to the input.
func TestTextFieldCountIsBounded(t *testing.T) {
	const size = 64 << 10
	lines := []byte("M-SEARCH * HTTP/1.1\r\n")
	for i := 0; len(lines) < size-16; i++ {
		lines = fmt.Appendf(lines, "%x:\r\n", i)
	}
	lines = append(lines, "\r\n"...)
	body := []byte("<root>")
	for i := 0; len(body) < size-128; i++ {
		body = fmt.Appendf(body, "<l%x>v</l%x>", i, i)
	}
	body = append(body, "</root>"...)
	leaves := fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	for _, tc := range []struct {
		name, mdl string
		wire      []byte
	}{
		{"SSDP header lines", ssdpMDL, lines},
		{"HTTP header lines", httpMDL, lines},
		{"HTTP XML leaves", httpMDL, leaves},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := mdl.ParseXMLString(tc.mdl)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := New(spec, nil)
			if len(tc.wire) > size {
				t.Fatalf("input is %d bytes, want at most %d", len(tc.wire), size)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msg, err := p.Parse(tc.wire)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errTooManyFields) {
				if err == nil {
					msg.Release()
				}
				t.Fatalf("%d bytes parsed with error %v, want %v", len(tc.wire), err, errTooManyFields)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(tc.wire)+64<<10); got > limit {
				t.Errorf("parsing %d bytes allocated %d B, want at most %d", len(tc.wire), got, limit)
			}
		})
	}
}

func TestFramerBinary(t *testing.T) {
	spec, _ := mdl.ParseXMLString(slpMDL)
	fr, err := NewFramer(spec)
	if err != nil {
		t.Fatal(err)
	}
	wire := buildSLPRequest(t, 9, "service:x")
	// Incomplete prefixes need more data.
	for _, cut := range []int{0, 3, 4, len(wire) - 1} {
		n, err := fr.Frame(wire[:cut])
		if err != nil || n != 0 {
			t.Fatalf("cut %d: n=%d err=%v", cut, n, err)
		}
	}
	n, err := fr.Frame(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("full: n=%d err=%v", n, err)
	}
	// Concatenated messages frame one at a time.
	double := append(append([]byte{}, wire...), wire...)
	n, err = fr.Frame(double)
	if err != nil || n != len(wire) {
		t.Fatalf("double: n=%d err=%v", n, err)
	}
}

func TestFramerText(t *testing.T) {
	spec, _ := mdl.ParseXMLString(httpMDL)
	fr, err := NewFramer(spec)
	if err != nil {
		t.Fatal(err)
	}
	body := "<root><URLBase>http://x/</URLBase></root>"
	head := "HTTP/1.1 200 OK\r\nContent-Length: " +
		itoa(len(body)) + "\r\n\r\n"
	wire := []byte(head + body)
	if n, _ := fr.Frame(wire[:10]); n != 0 {
		t.Fatal("partial head should need more")
	}
	if n, _ := fr.Frame(wire[:len(head)+3]); n != 0 {
		t.Fatal("partial body should need more")
	}
	n, err := fr.Frame(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// No Content-Length: frame ends at blank line.
	req := []byte("GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
	n, err = fr.Frame(req)
	if err != nil || n != len(req) {
		t.Fatalf("req n=%d err=%v", n, err)
	}
}

func TestFramerBadContentLength(t *testing.T) {
	spec, _ := mdl.ParseXMLString(httpMDL)
	fr, _ := NewFramer(spec)
	if _, err := fr.Frame([]byte("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n")); err == nil {
		t.Fatal("bad content-length should fail")
	}
}

func TestFramerRequiresLengthField(t *testing.T) {
	spec, _ := mdl.ParseXMLString(dnsMDL) // no f-totallength
	if _, err := NewFramer(spec); err == nil {
		t.Fatal("binary spec without f-totallength should not frame")
	}
}

func itoa(n int) string {
	return message.Int(int64(n)).Text()
}

func mustInt(t *testing.T, f *message.Field) int64 {
	t.Helper()
	if f == nil {
		t.Fatal("nil field")
	}
	v, ok := f.Value.AsInt()
	if !ok {
		t.Fatalf("field %q is not int: %v", f.Label, f.Value.Kind())
	}
	return v
}

func mustStr(t *testing.T, f *message.Field) string {
	t.Helper()
	if f == nil {
		t.Fatal("nil field")
	}
	v, ok := f.Value.AsString()
	if !ok {
		t.Fatalf("field %q is not string: %v", f.Label, f.Value.Kind())
	}
	return v
}
