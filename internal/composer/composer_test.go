package composer

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/parser"
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

func newPair(t *testing.T, xml string) (*Composer, *parser.Parser) {
	t.Helper()
	spec, err := mdl.ParseXMLString(xml)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parser.New(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestComposeSLPRequestRoundtrip(t *testing.T) {
	c, p := newPair(t, slpMDL)
	msg := message.New("SLP", "SLPSrvRequest")
	msg.AddPrimitive("Version", "Integer", message.Int(2))
	msg.AddPrimitive("FunctionID", "Integer", message.Int(1))
	msg.AddPrimitive("XID", "Integer", message.Int(4242))
	msg.AddPrimitive("LangTag", "String", message.Str("en"))
	msg.AddPrimitive("SRVType", "String", message.Str("service:printer"))

	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "SLPSrvRequest" {
		t.Fatalf("name = %q", back.Name)
	}
	for _, check := range []struct {
		label string
		want  string
	}{
		{"XID", "4242"}, {"SRVType", "service:printer"}, {"LangTag", "en"},
		{"SRVTypeLength", "15"}, {"LangTagLen", "2"}, {"PRLength", "0"},
	} {
		f, ok := back.Field(check.label)
		if !ok {
			t.Fatalf("%s missing", check.label)
		}
		if got := f.Value.Text(); got != check.want {
			t.Errorf("%s = %q, want %q", check.label, got, check.want)
		}
	}
	// MessageLength must be patched to the real total.
	f, _ := back.Field("MessageLength")
	if got, _ := f.Value.AsInt(); got != int64(len(wire)) {
		t.Errorf("MessageLength = %d, wire = %d", got, len(wire))
	}
}

func TestComposeAutoDerivesLengths(t *testing.T) {
	c, _ := newPair(t, slpMDL)
	// Deliberately set a WRONG SRVTypeLength; composer must override it
	// with the measured length.
	msg := message.New("SLP", "SLPSrvRequest")
	msg.AddPrimitive("FunctionID", "Integer", message.Int(1))
	msg.AddPrimitive("SRVTypeLength", "Integer", message.Int(999))
	msg.AddPrimitive("SRVType", "String", message.Str("abc"))
	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	// SRVTypeLength occupies the 2 bytes before the final 3.
	n := len(wire)
	got := int(wire[n-5])<<8 | int(wire[n-4])
	if got != 3 {
		t.Fatalf("SRVTypeLength on wire = %d, want 3", got)
	}
}

func TestComposeSLPReplyRoundtrip(t *testing.T) {
	c, p := newPair(t, slpMDL)
	msg := message.New("SLP", "SLPSrvReply")
	msg.AddPrimitive("Version", "Integer", message.Int(2))
	msg.AddPrimitive("FunctionID", "Integer", message.Int(2))
	msg.AddPrimitive("XID", "Integer", message.Int(7))
	msg.AddPrimitive("LangTag", "String", message.Str("en"))
	msg.AddPrimitive("URLCount", "Integer", message.Int(1))
	msg.AddPrimitive("URLEntry", "String", message.Str("service:printer://10.0.0.9:515"))

	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := back.Field("URLEntry")
	if got, _ := f.Value.AsString(); got != "service:printer://10.0.0.9:515" {
		t.Errorf("URLEntry = %q", got)
	}
	f, _ = back.Field("URLLength")
	if got, _ := f.Value.AsInt(); got != 30 {
		t.Errorf("URLLength = %d", got)
	}
}

func TestComposeUnknownMessage(t *testing.T) {
	c, _ := newPair(t, slpMDL)
	msg := message.New("SLP", "Bogus")
	if _, err := c.Compose(msg); err == nil || !strings.Contains(err.Error(), "no message") {
		t.Fatalf("err = %v", err)
	}
}

func TestComposeUnsetFieldsDefaultToZero(t *testing.T) {
	c, p := newPair(t, slpMDL)
	msg := message.New("SLP", "SLPSrvRequest")
	msg.AddPrimitive("FunctionID", "Integer", message.Int(1))
	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := back.Field("SRVType")
	if got, _ := f.Value.AsString(); got != "" {
		t.Errorf("SRVType = %q, want empty", got)
	}
	f, _ = back.Field("XID")
	if got, _ := f.Value.AsInt(); got != 0 {
		t.Errorf("XID = %d, want 0", got)
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

func TestComposeSSDPMSearch(t *testing.T) {
	c, p := newPair(t, ssdpMDL)
	msg := message.New("SSDP", "SSDPMSearch")
	msg.AddPrimitive("URI", "String", message.Str("*"))
	msg.AddPrimitive("Version", "String", message.Str("HTTP/1.1"))
	msg.AddPrimitive("HOST", "String", message.Str("239.255.255.250:1900"))
	msg.AddPrimitive("ST", "String", message.Str("urn:printer"))

	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	text := string(wire)
	if !strings.HasPrefix(text, "M-SEARCH * HTTP/1.1\r\n") {
		t.Fatalf("request line wrong: %q", text)
	}
	if !strings.Contains(text, "ST: urn:printer\r\n") {
		t.Fatalf("ST missing: %q", text)
	}
	if !strings.HasSuffix(text, "\r\n\r\n") {
		t.Fatalf("missing blank line: %q", text)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "SSDPMSearch" {
		t.Fatalf("name = %q", back.Name)
	}
	f, _ := back.Field("ST")
	if got, _ := f.Value.AsString(); got != "urn:printer" {
		t.Errorf("ST = %q", got)
	}
}

func TestComposeSSDPResponseImplodesURL(t *testing.T) {
	c, p := newPair(t, ssdpMDL)
	msg := message.New("SSDP", "SSDPResponse")
	msg.AddPrimitive("URI", "String", message.Str("200"))
	msg.AddPrimitive("Version", "String", message.Str("OK"))
	loc := &message.Field{Label: "LOCATION", Type: "URL", Children: []*message.Field{
		{Label: "protocol", Value: message.Str("http")},
		{Label: "address", Value: message.Str("10.0.0.7")},
		{Label: "port", Value: message.Int(5431)},
		{Label: "resource", Value: message.Str("/desc.xml")},
	}}
	msg.Add(loc)
	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), "LOCATION: http://10.0.0.7:5431/desc.xml\r\n") {
		t.Fatalf("LOCATION not imploded: %q", wire)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	port, ok := back.Path("LOCATION.port")
	if !ok {
		t.Fatal("LOCATION.port missing after roundtrip")
	}
	if v, _ := port.Value.AsInt(); v != 5431 {
		t.Errorf("port = %d", v)
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

func TestComposeHTTPOkWithBody(t *testing.T) {
	c, p := newPair(t, httpMDL)
	body := "<root><URLBase>http://10.0.0.7:5431/svc</URLBase></root>"
	msg := message.New("HTTP", "HTTPOk")
	msg.AddPrimitive("URI", "String", message.Str("200"))
	msg.AddPrimitive("Version", "String", message.Str("OK"))
	msg.AddPrimitive("Content-Length", "Integer", message.Int(int64(len(body))))
	msg.AddPrimitive("Body", "Bytes", message.Bytes([]byte(body)))

	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(wire), body) {
		t.Fatalf("body not appended: %q", wire)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := back.Field("URLBase")
	if !ok {
		t.Fatal("URLBase missing")
	}
	if got, _ := f.Value.AsString(); got != "http://10.0.0.7:5431/svc" {
		t.Errorf("URLBase = %q", got)
	}
}

const groupMDL = `
<MDL protocol="G" dialect="binary">
 <Types>
  <FID>Integer</FID>
  <N>Integer</N>
  <L>Integer</L>
  <V>String</V>
 </Types>
 <Header type="G"><FID>8</FID></Header>
 <Message type="M">
  <Rule>FID=1</Rule>
  <N>16</N>
  <Repeat label="Items" count="N">
   <L>16</L>
   <V>L</V>
  </Repeat>
 </Message>
</MDL>`

func TestComposeRepeatGroupRoundtrip(t *testing.T) {
	c, p := newPair(t, groupMDL)
	msg := message.New("G", "M")
	msg.AddPrimitive("FID", "Integer", message.Int(1))
	group := &message.Field{Label: "Items", Type: "Group", Children: []*message.Field{}}
	for i, s := range []string{"alpha", "be", "gamma!"} {
		item := &message.Field{Label: message.Int(int64(i)).Text(), Children: []*message.Field{
			{Label: "V", Value: message.Str(s)},
		}}
		group.Children = append(group.Children, item)
	}
	msg.Add(group)

	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := back.Field("Items")
	if !ok || len(g.Children) != 3 {
		t.Fatalf("Items = %+v", g)
	}
	v, ok := back.Path("Items.1.V")
	if !ok {
		t.Fatal("Items.1.V missing")
	}
	if got, _ := v.Value.AsString(); got != "be" {
		t.Errorf("Items.1.V = %q", got)
	}
	n, _ := back.Field("N")
	if got, _ := n.Value.AsInt(); got != 3 {
		t.Errorf("N = %d", got)
	}
}

func TestComposeEmptyGroup(t *testing.T) {
	c, p := newPair(t, groupMDL)
	msg := message.New("G", "M")
	msg.AddPrimitive("FID", "Integer", message.Int(1))
	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := back.Field("N")
	if got, _ := n.Value.AsInt(); got != 0 {
		t.Errorf("N = %d", got)
	}
}

// Property: compose∘parse is identity on the observable SLP request
// fields for arbitrary XIDs and service types.
func TestQuickSLPRequestRoundtrip(t *testing.T) {
	c, p := newPair(t, slpMDL)
	f := func(xid uint16, svcRaw []byte) bool {
		svc := make([]byte, 0, len(svcRaw))
		for _, b := range svcRaw {
			svc = append(svc, 'a'+b%26)
		}
		msg := message.New("SLP", "SLPSrvRequest")
		msg.AddPrimitive("FunctionID", "Integer", message.Int(1))
		msg.AddPrimitive("XID", "Integer", message.Int(int64(xid)))
		msg.AddPrimitive("SRVType", "String", message.Str(string(svc)))
		wire, err := c.Compose(msg)
		if err != nil {
			return false
		}
		back, err := p.Parse(wire)
		if err != nil {
			return false
		}
		fx, _ := back.Field("XID")
		fs, _ := back.Field("SRVType")
		gotXID, _ := fx.Value.AsInt()
		gotSvc, _ := fs.Value.AsString()
		return gotXID == int64(xid) && gotSvc == string(svc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: composed SLP wire always carries a correct MessageLength.
func TestQuickSLPMessageLengthInvariant(t *testing.T) {
	c, _ := newPair(t, slpMDL)
	f := func(svcRaw []byte) bool {
		svc := make([]byte, 0, len(svcRaw))
		for _, b := range svcRaw {
			svc = append(svc, 'a'+b%26)
		}
		msg := message.New("SLP", "SLPSrvRequest")
		msg.AddPrimitive("FunctionID", "Integer", message.Int(1))
		msg.AddPrimitive("SRVType", "String", message.Str(string(svc)))
		wire, err := c.Compose(msg)
		if err != nil {
			return false
		}
		got := int(wire[2])<<16 | int(wire[3])<<8 | int(wire[4])
		return got == len(wire)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: text compose∘parse preserves arbitrary wildcard fields.
func TestQuickSSDPWildcardRoundtrip(t *testing.T) {
	c, p := newPair(t, ssdpMDL)
	f := func(vals []uint16) bool {
		msg := message.New("SSDP", "SSDPMSearch")
		msg.AddPrimitive("URI", "String", message.Str("*"))
		msg.AddPrimitive("Version", "String", message.Str("HTTP/1.1"))
		want := map[string]string{}
		for i, v := range vals {
			label := "X-H" + message.Int(int64(i)).Text()
			val := "v" + message.Int(int64(v)).Text()
			want[label] = val
			msg.AddPrimitive(label, "String", message.Str(val))
		}
		wire, err := c.Compose(msg)
		if err != nil {
			return false
		}
		back, err := p.Parse(wire)
		if err != nil {
			return false
		}
		for label, val := range want {
			f, ok := back.Field(label)
			if !ok {
				return false
			}
			if got, _ := f.Value.AsString(); got != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestComposeDeterministic(t *testing.T) {
	c, _ := newPair(t, ssdpMDL)
	msg := message.New("SSDP", "SSDPMSearch")
	msg.AddPrimitive("URI", "String", message.Str("*"))
	msg.AddPrimitive("Version", "String", message.Str("HTTP/1.1"))
	msg.AddPrimitive("A", "String", message.Str("1"))
	msg.AddPrimitive("B", "String", message.Str("2"))
	w1, err := c.Compose(msg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.Compose(msg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1, w2) {
		t.Fatal("compose not deterministic")
	}
}

// TestComposeWritesFixedValues: the fields a message leaves unset take
// the definition's fixed values, the rule's among them — header fields
// in place, wildcard lines after the message's own in document order —
// and a value the message sets overrides its fixed one.
func TestComposeWritesFixedValues(t *testing.T) {
	fixed := strings.NewReplacer("<ST>String</ST>", "<ST>String</ST><HOST>String</HOST>", "<Rule>Method=M-SEARCH</Rule>",
		"<Rule>Method=M-SEARCH</Rule><Fixed>URI=*</Fixed><Fixed>Version=HTTP/1.1</Fixed><Fixed>HOST=239.255.255.250:1900</Fixed><Fixed>MX=1</Fixed>").Replace(ssdpMDL)
	c, _ := newPair(t, fixed)
	msg := message.New("SSDP", "SSDPMSearch")
	msg.AddPrimitive("ST", "String", message.Str("urn:printer"))
	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "M-SEARCH * HTTP/1.1\r\nST: urn:printer\r\nHOST: 239.255.255.250:1900\r\nMX: 1\r\n\r\n"
	if string(wire) != want {
		t.Errorf("wire %q, want %q", wire, want)
	}
	over := message.New("SSDP", "SSDPMSearch")
	over.AddPrimitive("MX", "Integer", message.Int(3))
	if wire, err = c.Compose(over); err != nil || !strings.Contains(string(wire), "MX: 3\r\n") {
		t.Errorf("an assigned MX did not override the fixed one: %q, %v", wire, err)
	}

	bin, p := newPair(t, strings.Replace(slpMDL, "<Rule>FunctionID=2</Rule>", "<Rule>FunctionID=2</Rule><Fixed>Version=2</Fixed><Fixed>URLCount=1</Fixed>", 1))
	if wire, err = bin.Compose(message.New("SLP", "SLPSrvReply")); err != nil {
		t.Fatal(err)
	}
	back, err := p.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range map[string]int64{"Version": 2, "FunctionID": 2, "URLCount": 1} {
		if f, ok := back.Field(label); !ok || !f.Value.Equal(message.Int(want)) {
			t.Errorf("%s = %v, want %d", label, f, want)
		}
	}
}
