//go:build !race

// Allocation pins: the race detector makes sync.Pool drop items at
// random, so these build only without it.

package parser_test

import (
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
