//go:build !race

// Allocation pins: the race detector makes sync.Pool drop items at
// random, so these build only without it.

package parser_test

import (
	"slices"
	"testing"

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
				sm, err := reg.Lookup(f.Type)
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
// the copy plus, for a DNS answer, its FQDN rebuilt as a dotted name
// and, for an SSDP response, what net/url allocates to explode LOCATION.
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
		{"ssdp", 1, "SSDPResponse", 3},
		{"http", 1, "HTTPOk", 1},
	} {
		i := slices.IndexFunc(codecs, func(c codec) bool { return c.name == tc.codec })
		p, wire := codecs[i].p, seeds[tc.codec][tc.seed]
		m, err := p.Parse(wire)
		if err != nil || m.Name != tc.msg {
			t.Fatalf("%s: parsed %v, %v; want %s", tc.codec, m, err, tc.msg)
		}
		m.Release()
		got := testing.AllocsPerRun(200, func() {
			m, _ := p.Parse(wire)
			m.Release()
		})
		if got > tc.max {
			t.Errorf("Parse(%s) allocates %.1f, want at most %.0f", tc.msg, got, tc.max)
		}
	}
}
