package mdl

import (
	"strings"
	"testing"

	"starlink/internal/message"
	"starlink/internal/types"
)

const slpMDLForTest = `
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
 <Message type="SLPSrvReply" mandatory="URLEntry">
  <Rule>FunctionID=2</Rule>
  <URLLength>16</URLLength>
  <URLEntry>URLLength</URLEntry>
 </Message>
</MDL>`

func TestParseXMLBinary(t *testing.T) {
	spec, err := ParseXMLString(slpMDLForTest)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Protocol != "SLP" || spec.Dialect != DialectBinary {
		t.Fatalf("protocol=%q dialect=%v", spec.Protocol, spec.Dialect)
	}
	if len(spec.Header.Fields) != 8 {
		t.Fatalf("header fields = %d", len(spec.Header.Fields))
	}
	if spec.Header.TypeName != "SLP" {
		t.Fatalf("header type = %q", spec.Header.TypeName)
	}
	if got := spec.Header.Fields[2]; got.Label != "MessageLength" || got.SizeBits != 24 {
		t.Fatalf("MessageLength = %+v", got)
	}
	if got := spec.Header.Fields[7]; got.Label != "LangTag" || got.SizeRef != "LangTagLen" {
		t.Fatalf("LangTag = %+v", got)
	}
	if len(spec.Messages) != 2 {
		t.Fatalf("messages = %d", len(spec.Messages))
	}
	req := spec.Messages[0]
	if req.Name != "SLPSrvRequest" || req.Rule.Field != "FunctionID" || req.Rule.Value != "1" {
		t.Fatalf("req = %+v", req)
	}
	if len(req.Mandatory) != 1 || req.Mandatory[0] != "SRVType" {
		t.Fatalf("mandatory = %v", req.Mandatory)
	}
	// Function references.
	td := spec.Types["URLLength"]
	if td.Func == nil || td.Func.Name != "f-length" || td.Func.Args[0] != "URLEntry" {
		t.Fatalf("URLLength type = %+v", td)
	}
	td = spec.Types["MessageLength"]
	if td.Func == nil || td.Func.Name != "f-totallength" || len(td.Func.Args) != 0 {
		t.Fatalf("MessageLength type = %+v", td)
	}
}

const ssdpMDLForTest = `
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

func TestParseXMLText(t *testing.T) {
	spec, err := ParseXMLString(ssdpMDLForTest)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dialect != DialectText {
		t.Fatalf("dialect = %v", spec.Dialect)
	}
	h := spec.Header.Fields
	if len(h) != 4 {
		t.Fatalf("header fields = %d", len(h))
	}
	if string(h[0].Delim) != " " {
		t.Fatalf("Method delim = %v", h[0].Delim)
	}
	if string(h[2].Delim) != "\r\n" {
		t.Fatalf("Version delim = %v", h[2].Delim)
	}
	w := h[3]
	if !w.Wildcard || string(w.Delim) != "\r\n" || w.InnerSplit != ':' {
		t.Fatalf("Fields = %+v", w)
	}
	if _, ok := spec.MessageByName("SSDPMSearch"); !ok {
		t.Fatal("SSDPMSearch missing")
	}
}

// A message is the first definition whose rule field renders as the
// rule's value: FunctionID=2 is the reply, typed or as text, and 99 or
// "02" is no message.
func TestSelectMessage(t *testing.T) {
	spec, err := ParseXMLString(slpMDLForTest)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.Resolve(types.NewRegistry())
	pick := func(v message.Value) string {
		for _, p := range r.Plans {
			if p.RuleSlot >= 0 && p.Matches(v) {
				return p.Def.Name
			}
		}
		return ""
	}
	for _, tc := range []struct {
		v    message.Value
		want string
	}{
		{message.Int(2), "SLPSrvReply"}, {message.Str("2"), "SLPSrvReply"},
		{message.Int(99), ""}, {message.Str("02"), ""},
	} {
		if got := pick(tc.v); got != tc.want {
			t.Errorf("FunctionID=%s selected %q, want %q", tc.v.Text(), got, tc.want)
		}
	}
	// MatchesInt is Matches on an integer, non-canonical rule text included.
	odd := &Plan{Def: &MessageDef{Rule: Rule{Field: "FunctionID", Value: "007"}}, Rule: typedRule(message.KindInt, "007")}
	for _, p := range append(r.Plans, odd) {
		for _, n := range []int64{-1, 0, 1, 2, 7, 99} {
			if p.MatchesInt(n) != p.Matches(message.Int(n)) {
				t.Errorf("%s=%s: MatchesInt(%d) = %v, Matches says %v", p.Def.Rule.Field, p.Def.Rule.Value, n, p.MatchesInt(n), !p.MatchesInt(n))
			}
		}
	}
}

func TestParseTypeRef(t *testing.T) {
	tests := []struct {
		content  string
		wantType string
		wantFunc string
		wantArgs []string
		wantErr  bool
	}{
		{"Integer", "Integer", "", nil, false},
		{" String ", "String", "", nil, false},
		{"Integer[f-length(URLEntry)]", "Integer", "f-length", []string{"URLEntry"}, false},
		{"Integer[f-totallength()]", "Integer", "f-totallength", nil, false},
		{"Integer[f-two(a, b)]", "Integer", "f-two", []string{"a", "b"}, false},
		{"Integer[broken", "", "", nil, true},
		{"", "", "", nil, true},
		{"123abc", "", "", nil, true},
	}
	for _, tt := range tests {
		td, err := ParseTypeRef("L", tt.content)
		if tt.wantErr {
			if err == nil {
				t.Errorf("%q: want error", tt.content)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tt.content, err)
			continue
		}
		if td.TypeName != tt.wantType {
			t.Errorf("%q: type = %q", tt.content, td.TypeName)
		}
		if tt.wantFunc == "" && td.Func != nil {
			t.Errorf("%q: unexpected func %v", tt.content, td.Func)
		}
		if tt.wantFunc != "" {
			if td.Func == nil || td.Func.Name != tt.wantFunc {
				t.Errorf("%q: func = %+v", tt.content, td.Func)
				continue
			}
			if len(td.Func.Args) != len(tt.wantArgs) {
				t.Errorf("%q: args = %v", tt.content, td.Func.Args)
			}
		}
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("FunctionID=1")
	if err != nil || r.Field != "FunctionID" || r.Value != "1" {
		t.Fatalf("r=%+v err=%v", r, err)
	}
	// The paper's Fig. 7 line 19 has a stray '>' ("FunctionID=1>");
	// accept and trim it.
	r, err = ParseRule("FunctionID=1>")
	if err != nil || r.Value != "1" {
		t.Fatalf("r=%+v err=%v", r, err)
	}
	if _, err := ParseRule("nonsense"); err == nil {
		t.Fatal("rule without = should fail")
	}
}

func TestParseTextFieldSpec(t *testing.T) {
	d, inner, err := ParseTextFieldSpec("13,10:58")
	if err != nil || string(d) != "\r\n" || inner != ':' {
		t.Fatalf("d=%v inner=%v err=%v", d, inner, err)
	}
	d, inner, err = ParseTextFieldSpec("32")
	if err != nil || string(d) != " " || inner != 0 {
		t.Fatalf("d=%v inner=%v err=%v", d, inner, err)
	}
	if _, _, err := ParseTextFieldSpec("abc"); err == nil {
		t.Fatal("non-numeric should fail")
	}
	if _, _, err := ParseTextFieldSpec("13:58,59"); err == nil {
		t.Fatal("multi-byte inner split should fail")
	}
	if _, _, err := ParseTextFieldSpec("300"); err == nil {
		t.Fatal("byte out of range should fail")
	}
}

func TestParseBinaryFieldSpec(t *testing.T) {
	f, err := ParseBinaryFieldSpec("X", "16")
	if err != nil || f.SizeBits != 16 {
		t.Fatalf("f=%+v err=%v", f, err)
	}
	f, err = ParseBinaryFieldSpec("X", "PRLength")
	if err != nil || f.SizeRef != "PRLength" {
		t.Fatalf("f=%+v err=%v", f, err)
	}
	f, err = ParseBinaryFieldSpec("X", "*")
	if err != nil || !f.Rest {
		t.Fatalf("f=%+v err=%v", f, err)
	}
	if _, err := ParseBinaryFieldSpec("X", "-5"); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		xml  string
		want string
	}{
		{
			"unknown dialect",
			`<MDL protocol="P" dialect="quantum"></MDL>`,
			"unknown dialect",
		},
		{
			"missing header",
			`<MDL protocol="P" dialect="binary"><Message type="M"><Rule>A=1</Rule></Message></MDL>`,
			"missing header",
		},
		{
			"no messages",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A></Types><Header type="P"><A>8</A></Header></MDL>`,
			"no messages",
		},
		{
			"rule references unknown header field",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A></Types><Header type="P"><A>8</A></Header>
			 <Message type="M"><Rule>B=1</Rule></Message></MDL>`,
			"unknown header field",
		},
		{
			"size ref to later field",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A><B>String</B><C>Integer</C></Types>
			 <Header type="P"><A>8</A></Header>
			 <Message type="M"><Rule>A=1</Rule><B>C</B><C>16</C></Message></MDL>`,
			"not previously defined",
		},
		{
			"duplicate message",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A></Types><Header type="P"><A>8</A></Header>
			 <Message type="M"><Rule>A=1</Rule></Message><Message type="M"><Rule>A=2</Rule></Message></MDL>`,
			"duplicate message",
		},
		{
			"mandatory field undefined",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A></Types><Header type="P"><A>8</A></Header>
			 <Message type="M" mandatory="Ghost"><Rule>A=1</Rule></Message></MDL>`,
			"mandatory field",
		},
		{
			"variable string without size",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A><S>String</S></Types>
			 <Header type="P"><A>8</A></Header>
			 <Message type="M"><Rule>A=1</Rule><S></S></Message></MDL>`,
			"not self-delimiting",
		},
		{
			"repeat group without count",
			`<MDL protocol="P" dialect="binary"><Types><A>Integer</A></Types><Header type="P"><A>8</A></Header>
			 <Message type="M"><Rule>A=1</Rule><Repeat label="G"><A>8</A></Repeat></Message></MDL>`,
			"missing count",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseXMLString(tt.xml)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestRepeatGroupParse(t *testing.T) {
	x := `<MDL protocol="P" dialect="binary">
	 <Types><FID>Integer</FID><N>Integer</N><L>Integer</L><V>String</V></Types>
	 <Header type="P"><FID>8</FID></Header>
	 <Message type="M">
	  <Rule>FID=1</Rule>
	  <N>16</N>
	  <Repeat label="Items" count="N">
	   <L>16</L>
	   <V>L</V>
	  </Repeat>
	 </Message>
	</MDL>`
	spec, err := ParseXMLString(x)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Messages[0]
	if len(m.Fields) != 2 {
		t.Fatalf("fields = %d", len(m.Fields))
	}
	g := m.Fields[1]
	if !g.IsGroup() || g.Label != "Items" || g.CountRef != "N" || len(g.Group) != 2 {
		t.Fatalf("group = %+v", g)
	}
}

func TestTypeOfDefaultsToString(t *testing.T) {
	spec, err := ParseXMLString(ssdpMDLForTest)
	if err != nil {
		t.Fatal(err)
	}
	td := spec.TypeOf("X-Unknown-Header")
	if td.TypeName != "String" {
		t.Fatalf("default type = %q", td.TypeName)
	}
	td = spec.TypeOf("MX")
	if td.TypeName != "Integer" {
		t.Fatalf("MX type = %q", td.TypeName)
	}
}

func TestDialectString(t *testing.T) {
	if DialectBinary.String() != "binary" || DialectText.String() != "text" || DialectInvalid.String() != "invalid" {
		t.Fatal("dialect names wrong")
	}
	if _, err := ParseBodyKind("xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBodyKind("weird"); err == nil {
		t.Fatal("bad body kind should fail")
	}
}

// A classifier reads the rule field without parsing, so Validate refuses
// a rule field no fixed position reaches: one behind a size-referenced
// field, behind a repeat group, or behind the text wildcard.
func TestValidateRefusesRuleAfterVariableWidth(t *testing.T) {
	for _, tc := range []struct{ name, xml string }{
		{"behind a size reference", `<MDL protocol="P" dialect="binary">
			<Types><N>Integer</N><S>String</S><F>Integer</F></Types>
			<Header type="P"><N>8</N><S>N</S><F>8</F></Header>
			<Message type="M"><Rule>F=1</Rule></Message></MDL>`},
		{"behind a repeat group", `<MDL protocol="P" dialect="binary">
			<Types><N>Integer</N><V>Integer</V><F>Integer</F></Types>
			<Header type="P"><N>8</N><Repeat label="G" count="N"><V>8</V></Repeat><F>8</F></Header>
			<Message type="M"><Rule>F=1</Rule></Message></MDL>`},
		{"behind a text wildcard", `<MDL protocol="P" dialect="text">
			<Types><Method>String</Method><Late>String</Late></Types>
			<Header type="P"><Method>32</Method><Fields>13,10:58</Fields><Late>13,10</Late></Header>
			<Message type="M"><Rule>Late=x</Rule></Message></MDL>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseXMLString(tc.xml)
			if err == nil || !strings.Contains(err.Error(), "no fixed position") {
				t.Fatalf("err = %v, want the rule field refused for having no fixed position", err)
			}
		})
	}
}
