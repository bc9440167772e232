package netapi_test

import (
	"math"
	"testing"

	"starlink/internal/dst"
	"starlink/internal/netapi"
)

// FuzzParseFaultRule holds ParseFaultRule to what it promises: a line
// it accepts is in range, and it round-trips through FormatFaultRule to
// the same rule. The corpus is every rule of the shipped scenario
// catalog plus the table-form examples of fault.go.
func FuzzParseFaultRule(f *testing.F) {
	for _, s := range dst.Builtin() {
		if s.Faults == nil {
			continue
		}
		for _, r := range s.Faults.Rules {
			f.Add(netapi.FormatFaultRule(r))
		}
	}
	f.Add("fault name=cut from=10.0.0.1 to=10.0.0.9:427 proto=udp start=0s end=2s partition")
	f.Add("fault from=* to=10.0.0.5 loss=0.3 delay=1ms jitter=500us dup=0.2 dupdelay=1ms reorder=0.1 reorderdelay=2ms")
	f.Add("fault to=10.0.0.5 proto=udp corrupt=0.2 truncate=0.1")
	f.Fuzz(func(t *testing.T, line string) {
		r, err := netapi.ParseFaultRule(line)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"loss": r.Loss, "dup": r.Duplicate, "reorder": r.Reorder, "corrupt": r.Corrupt, "truncate": r.Truncate,
		} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%q accepted with %s=%v", line, name, p)
			}
		}
		if r.Start < 0 || r.End < 0 || r.Delay < 0 || r.DelayJitter < 0 || r.DuplicateDelay < 0 || r.ReorderDelay < 0 {
			t.Fatalf("%q accepted with a negative duration: %+v", line, r)
		}
		if r.End != 0 && r.End <= r.Start {
			t.Fatalf("%q accepted a rule that is never active: %+v", line, r)
		}
		text := netapi.FormatFaultRule(r)
		back, err := netapi.ParseFaultRule(text)
		if err != nil {
			t.Fatalf("%q parsed, but its formatted form %q does not: %v", line, text, err)
		}
		if back != r {
			t.Fatalf("%q did not round-trip through %q:\n got %+v\nwant %+v", line, text, back, r)
		}
	})
}
