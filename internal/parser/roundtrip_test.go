package parser_test

import (
	"bytes"
	"io/fs"
	"runtime"
	"strings"
	"testing"

	"starlink/internal/composer"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/models"
	"starlink/internal/parser"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
)

// codec is one shipped MDL's parser and composer.
type codec struct {
	name string
	p    *parser.Parser
	c    *composer.Composer
}

// shippedCodecs builds a codec for every shipped MDL (internal/models
// *-mdl.xml, the list TestAllMDLsParse checks), in name order.
func shippedCodecs(tb testing.TB) []codec {
	names, err := fs.Glob(models.FS, "*-mdl.xml")
	if err != nil || len(names) == 0 {
		tb.Fatalf("shipped MDLs: %v %v", names, err)
	}
	var out []codec
	for _, name := range names {
		src, err := fs.ReadFile(models.FS, name)
		if err != nil {
			tb.Fatal(err)
		}
		spec, err := mdl.ParseXMLString(string(src))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		p, err := parser.New(spec, nil)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := composer.New(spec, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, codec{strings.TrimSuffix(name, "-mdl.xml"), p, c})
	}
	return out
}

// roundTripSeeds are wire forms of every message of every shipped MDL:
// what the legacy stacks' own marshallers send, and what the composer
// makes of each definition left empty.
func roundTripSeeds(tb testing.TB, codecs []codec) map[string][][]byte {
	must := func(wire []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return wire
	}
	rqst := &slp.SrvRqst{Header: slp.Header{XID: 42, LangTag: "en"}, ServiceType: "service:printer", Predicate: "(x=1)"}
	rply := &slp.SrvRply{Header: slp.Header{XID: 42}, URLs: []string{"service:printer://10.0.0.7:515"}}
	q := &dnssd.Message{ID: 7, Questions: []dnssd.Question{{Name: "_printer._tcp.local", QType: 16}}}
	a := &dnssd.Message{ID: 7, Flags: 0x8400, Answers: []dnssd.Answer{{Name: "_printer._tcp.local", AType: 16, TTL: 120, RDATA: "url=ipp://10.0.0.7:631"}}}
	st := "urn:schemas-upnp-org:device:Printer:1"
	seeds := map[string][][]byte{
		"slp":  {rqst.Marshal(), rply.Marshal()},
		"mdns": {must(q.Marshal()), must(a.Marshal())},
		"ssdp": {ssdp.NewMSearch(st, 2).Marshal(), ssdp.NewResponse(st, "http://10.0.0.7:5431/desc.xml", "uuid:printer").Marshal()},
		"http": {
			httpx.MarshalRequest("/desc.xml", "10.0.0.7:5431"),
			httpx.MarshalResponse(200, "OK", "text/xml", upnp.DescriptionXML("Printer", st, "http://10.0.0.7:5431/svc")),
		},
	}
	for _, cd := range codecs {
		for _, def := range cd.p.Spec().Messages {
			seeds[cd.name] = append(seeds[cd.name], must(cd.c.Compose(message.New(cd.p.Spec().Protocol, def.Name))))
		}
	}
	return seeds
}

// A parsed message keeps no reference to its input: overwriting the
// buffer after Parse leaves every value of every seed as it was.
func TestParseOwnsItsValues(t *testing.T) {
	codecs := shippedCodecs(t)
	seeds := roundTripSeeds(t, codecs)
	for _, cd := range codecs {
		for _, wire := range seeds[cd.name] {
			in := append([]byte(nil), wire...)
			m, err := cd.p.Parse(in)
			if err != nil {
				t.Fatalf("%s: %v", cd.name, err)
			}
			before := m.String() // a copy of every value's text
			for i := range in {
				in[i] = '#'
			}
			if after := m.String(); after != before {
				t.Errorf("%s: overwriting the input changed the parsed message\nbefore %s\nafter  %s", cd.name, before, after)
			}
			m.Release()
		}
	}
}

// Composing after a prefix writes the message as composing it alone
// does, for every definition of every shipped binary MDL, empty or as a
// legacy stack sends it: a function field such as SLP's f-totallength
// counts the message's bytes, not the prefix's.
func TestAppendComposeAfterPrefix(t *testing.T) {
	codecs := shippedCodecs(t)
	seeds := roundTripSeeds(t, codecs)
	prefix := []byte("prefix bytes")
	for _, cd := range codecs {
		if cd.c.Spec().Dialect != mdl.DialectBinary {
			continue
		}
		for _, wire := range seeds[cd.name] {
			alone, err := cd.p.Parse(wire)
			if err != nil {
				t.Fatalf("%s: %v", cd.name, err)
			}
			after, _ := cd.p.Parse(wire)
			want, err := cd.c.Compose(alone)
			if err != nil {
				t.Fatalf("%s %s: %v", cd.name, alone.Name, err)
			}
			got, err := cd.c.AppendCompose(append(make([]byte, 0, 2*len(prefix)), prefix...), after)
			if err != nil {
				t.Fatalf("%s %s: %v", cd.name, after.Name, err)
			}
			if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
				t.Errorf("%s %s: after a prefix\n got %x\nwant %x‖%x", cd.name, after.Name, got, prefix, want)
			}
			alone.Release()
			after.Release()
		}
	}
}

// FuzzRoundTrip holds every shipped codec to four properties: parse ∘
// compose ∘ parse is a fixpoint (after one compose neither the bytes nor
// the message change any more); every truncation of a seed parses to an
// error or a message, never a panic; a parsed message does not alias
// its input, so mutating the input leaves the message unchanged; and
// every parse allocates in proportion to its input (parseBounded).
func FuzzRoundTrip(f *testing.F) {
	codecs := shippedCodecs(f)
	seeds, isSeed := roundTripSeeds(f, codecs), map[string]bool{}
	for i, cd := range codecs {
		if len(seeds[cd.name]) == 0 {
			f.Fatalf("no seeds for %s", cd.name)
		}
		for _, wire := range seeds[cd.name] {
			f.Add(uint8(i), wire)
			isSeed[string(wire)] = true
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		cd := codecs[int(which)%len(codecs)]
		// Every truncation of a seed; the walk is quadratic, and over the
		// mutator's inputs it would starve the search.
		for i := 0; i < len(data) && isSeed[string(data)]; i++ {
			if m, err := parseBounded(t, cd.p, data[:i]); err == nil {
				m.Release()
			}
		}
		in := append([]byte(nil), data...)
		m1, err := parseBounded(t, cd.p, in)
		if err != nil {
			return
		}
		defer m1.Release()
		before := m1.Clone()
		for i := range in {
			in[i] ^= 0xff
		}
		if !m1.Equal(before) {
			t.Fatalf("%s: mutating the input changed the parsed message\nbefore %s\nafter  %s", cd.name, before, m1)
		}
		w1, err := cd.c.Compose(m1)
		if err != nil {
			return // a value the marshallers cannot write back
		}
		m2, err := parseBounded(t, cd.p, w1)
		if err != nil {
			t.Fatalf("%s: composed %q does not parse: %v\nfrom %s", cd.name, w1, err, m1)
		}
		defer m2.Release()
		w2, err := cd.c.Compose(m2)
		if err != nil {
			t.Fatalf("%s: %s parsed from %q does not compose: %v", cd.name, m2, w1, err)
		}
		if string(w2) != string(w1) {
			t.Fatalf("%s: compose∘parse moved the bytes\nfirst  %q\nsecond %q", cd.name, w1, w2)
		}
		m3, err := parseBounded(t, cd.p, w2)
		if err != nil {
			t.Fatal(err)
		}
		defer m3.Release()
		if !m3.Equal(m2) {
			t.Fatalf("%s: parse∘compose moved the message\nfirst  %s\nsecond %s", cd.name, m2, m3)
		}
	})
}

// parseBounded is p.Parse(data) that fails t when the parse allocated
// more than 8 bytes per input byte plus 64 KiB: what the bytes of a
// hostile peer can make the parser hold, malformed input included.
func parseBounded(t *testing.T, p *parser.Parser, data []byte) (*message.Message, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := p.Parse(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+64<<10); got > limit {
		t.Fatalf("parsing %d bytes %q allocated %d B, want at most %d (error %v)", len(data), data, got, limit, err)
	}
	return m, err
}
