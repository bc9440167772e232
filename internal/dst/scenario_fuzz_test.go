package dst

import (
	"reflect"
	"testing"
)

// FuzzScenarioRoundTrip holds ParseScenario to what an artifact's
// replay needs: a scenario it accepts is in range (no negative
// duration, no case without a name, no floor below zero, at most
// MaxClients clients), and
// FormatScenario writes it back to text that parses to the same
// scenario. The corpus is every builtin scenario plus one line of each
// kind the parser once accepted out of range. No scenario is run.
func FuzzScenarioRoundTrip(f *testing.F) {
	for _, name := range Names() {
		f.Add(FormatScenario(Builtin()[name]))
	}
	for _, line := range []string{"drain -1s", "stagger -5ms", "case ", "clients 2000000000", "expect started>=-1"} {
		f.Add("scenario s\ncase slp-to-upnp\nclients 1\n" + line + "\n")
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseScenario(text)
		if err != nil {
			return
		}
		if s.Stagger < 0 || s.Drain < 0 || s.Reload < 0 {
			t.Fatalf("%q accepted with a negative duration: %+v", text, s)
		}
		for _, c := range s.Cases {
			if c == "" {
				t.Fatalf("%q accepted with a case that has no name", text)
			}
		}
		for _, e := range s.Expect {
			if e.Min < 0 {
				t.Fatalf("%q accepted with a floor below zero: %+v", text, e)
			}
		}
		if s.Clients > MaxClients || s.AltClients > MaxClients {
			t.Fatalf("%q accepted with %d clients and %d alt clients, over %d", text, s.Clients, s.AltClients, MaxClients)
		}
		out := FormatScenario(s)
		back, err := ParseScenario(out)
		if err != nil {
			t.Fatalf("%q parsed, but its formatted form does not: %v\n%s", text, err, out)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("%q did not round-trip through\n%s\n got %+v\nwant %+v", text, out, back, s)
		}
	})
}
