package parser_test

import "testing"

// FuzzClassify holds Classify to the parse it stands in for, over every
// definition of every shipped MDL: a message Parse accepts, Classify
// names alike, and where Classify names nothing, Parse fails. (Classify
// may name a message Parse then rejects: it reads the rule field only.)
func FuzzClassify(f *testing.F) {
	codecs := shippedCodecs(f)
	seeds := roundTripSeeds(f, codecs)
	for i, cd := range codecs {
		for _, wire := range seeds[cd.name] {
			f.Add(uint8(i), wire)
		}
		for _, tc := range textMessages() {
			if tc.protocol != cd.p.Spec().Protocol {
				continue
			}
			for cut := 0; cut <= len(tc.wire); cut++ {
				f.Add(uint8(i), tc.wire[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		cd := codecs[int(which)%len(codecs)]
		name, ok := cd.p.Classify(data)
		m, err := cd.p.Parse(data)
		if err != nil {
			return
		}
		defer m.Release()
		if !ok || name != m.Name {
			t.Fatalf("%s: Parse says %s, Classify says %q (ok=%v)\n%q", cd.name, m.Name, name, ok, data)
		}
	})
}
