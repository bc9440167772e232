//go:build !race

// Allocation pins: the race detector makes sync.Pool drop items at
// random, so these build only without it.

package parser_test

import (
	"slices"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/parser"
	"starlink/internal/types"
)

// AppendCompose into a warm buffer allocates nothing of its own for any
// message of any shipped MDL — the legacy stacks' wire forms and every
// definition composed empty, parsed back: the marshallers append into
// the composer's pooled arena and the wire is appended to the caller's
// buffer. What a structured field's Implode costs (net/url renders
// SSDP's LOCATION) is the marshaller's, measured on its own and allowed.
func TestAppendComposeAllocs(t *testing.T) {
	codecs := shippedCodecs(t)
	seeds, reg := roundTripSeeds(t, codecs), types.NewRegistry()
	for _, cd := range codecs {
		for _, wire := range seeds[cd.name] {
			m, err := cd.p.Parse(wire)
			if err != nil {
				t.Fatalf("%s: %v", cd.name, err)
			}
			implode := 0.0
			for _, f := range m.Fields() {
				if !f.IsStructured() {
					continue
				}
				sm, err := reg.Lookup(cd.c.Spec().TypeOf(f.Label).TypeName)
				if err != nil {
					t.Fatal(err)
				}
				implode += testing.AllocsPerRun(50, func() { _, _ = sm.(types.StructuredMarshaller).Implode(f.Children) })
			}
			buf, err := cd.c.AppendCompose(nil, m)
			if err != nil {
				t.Fatalf("%s %s: %v", cd.name, m.Name, err)
			}
			if got := testing.AllocsPerRun(100, func() { buf, _ = cd.c.AppendCompose(buf[:0], m) }); got != implode {
				t.Errorf("%s %s: AppendCompose into a warm buffer allocates %.1f, its structured fields' Implode %.1f", cd.name, m.Name, got, implode)
			}
			m.Release()
		}
	}
}

// Parsing a message makes one copy of it, and every value that is not a
// number is a substring of that copy: the four messages the benchmark's
// bridges receive, as the legacy stacks' own Marshal writes them, cost
// the copy plus, for a DNS answer, its FQDN rebuilt as a dotted name.
// An SSDP response's LOCATION explodes into substrings and children the
// pooled message already holds.
// A Bytes field and a raw body are substrings like a string: a message
// of each costs the copy alone.
func TestParseAllocs(t *testing.T) {
	codecs := shippedCodecs(t)
	seeds := roundTripSeeds(t, codecs)
	for _, tc := range []struct {
		codec string
		seed  int
		msg   string
		max   float64
	}{
		{"slp", 0, "SLPSrvRequest", 1},
		{"mdns", 1, "DNSResponse", 2},
		{"ssdp", 1, "SSDPResponse", 1},
		{"http", 1, "HTTPOk", 1},
	} {
		i := slices.IndexFunc(codecs, func(c codec) bool { return c.name == tc.codec })
		checkParseAllocs(t, codecs[i].p, seeds[tc.codec][tc.seed], tc.msg, tc.max)
	}
	for _, tc := range []struct {
		mdl   string
		wire  string
		msg   string
		field string // a Bytes field holding "abc"
	}{
		{blobMDL, "\x01\xde\xad\xbe\xef\x00\x03abc", "BLOBData", "Data"},
		{rawMDL, "PUT /x RAW/1\r\nContent-Length: 3\r\n\r\nabc", "RAWPut", "Body"},
	} {
		spec, err := mdl.ParseXMLString(tc.mdl)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parser.New(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Parse([]byte(tc.wire))
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := m.Field(tc.field); !ok || f.Value.Text() != "616263" {
			t.Fatalf("%s: %s = %v, want the bytes abc", tc.msg, tc.field, f)
		}
		m.Release()
		checkParseAllocs(t, p, []byte(tc.wire), tc.msg, 1)
	}
}

// blobMDL's message carries a fixed-width and a sized Bytes field.
const blobMDL = `
<MDL protocol="BLOB" dialect="binary">
 <Types>
  <Kind>Integer</Kind>
  <Tag>Bytes</Tag>
  <DataLen>Integer</DataLen>
  <Data>Bytes</Data>
 </Types>
 <Header type="BLOB">
  <Kind>8</Kind>
 </Header>
 <Message type="BLOBData">
  <Rule>Kind=1</Rule>
  <Tag>32</Tag>
  <DataLen>16</DataLen>
  <Data>DataLen</Data>
 </Message>
</MDL>`

// rawMDL's message carries a raw body.
const rawMDL = `
<MDL protocol="RAW" dialect="text">
 <Types>
  <Method>String</Method>
  <URI>String</URI>
  <Version>String</Version>
  <Content-Length>Integer</Content-Length>
 </Types>
 <Header type="RAW">
  <Method>32</Method>
  <URI>32</URI>
  <Version>13,10</Version>
  <Fields>13,10:58</Fields>
 </Header>
 <Message type="RAWPut" body="raw">
  <Rule>Method=PUT</Rule>
 </Message>
</MDL>`

// checkParseAllocs parses wire as msg and holds a parse to max
// allocations.
func checkParseAllocs(t *testing.T, p *parser.Parser, wire []byte, msg string, max float64) {
	t.Helper()
	m, err := p.Parse(wire)
	if err != nil || m.Name != msg {
		t.Fatalf("parsed %v, %v; want %s", m, err, msg)
	}
	m.Release()
	got := testing.AllocsPerRun(200, func() {
		m, _ := p.Parse(wire)
		m.Release()
	})
	if got > max {
		t.Errorf("Parse(%s) allocates %.1f, want at most %.0f", msg, got, max)
	}
}
