package netapi

import (
	"strings"
	"testing"
	"time"
)

func TestFaultRuleMatching(t *testing.T) {
	a := func(ip string, port int) Addr { return Addr{IP: ip, Port: port} }
	cases := []struct {
		name    string
		rule    FaultRule
		proto   string
		from    Addr
		to      Addr
		elapsed time.Duration
		want    bool
	}{
		{"wildcard", FaultRule{}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 2), 0, true},
		{"star", FaultRule{From: "*", To: "*"}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 2), 0, true},
		{"exact ip", FaultRule{From: "10.0.0.1"}, "udp", a("10.0.0.1", 99), a("10.0.0.2", 2), 0, true},
		{"wrong ip", FaultRule{From: "10.0.0.3"}, "udp", a("10.0.0.1", 99), a("10.0.0.2", 2), 0, false},
		{"ip port", FaultRule{To: "10.0.0.2:427"}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 427), 0, true},
		{"wrong port", FaultRule{To: "10.0.0.2:428"}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 427), 0, false},
		{"any host with port", FaultRule{To: "*:427"}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 427), 0, true},
		{"prefix", FaultRule{From: "10.0.1.*"}, "udp", a("10.0.1.77", 1), a("10.0.0.2", 2), 0, true},
		{"prefix miss", FaultRule{From: "10.0.1.*"}, "udp", a("10.0.10.1", 1), a("10.0.0.2", 2), 0, false},
		{"proto gate", FaultRule{Proto: "udp"}, "stream", a("10.0.0.1", 1), a("10.0.0.2", 2), 0, false},
		{"window before", FaultRule{Start: time.Second}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 2), 500 * time.Millisecond, false},
		{"window inside", FaultRule{Start: time.Second, End: 2 * time.Second}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 2), 1500 * time.Millisecond, true},
		{"window after", FaultRule{Start: time.Second, End: 2 * time.Second}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 2), 2 * time.Second, false},
		{"no end", FaultRule{Start: time.Second}, "udp", a("10.0.0.1", 1), a("10.0.0.2", 2), time.Hour, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.rule.Matches(c.proto, c.from, c.to, c.elapsed); got != c.want {
				t.Fatalf("Matches(%s, %v, %v, %v) = %v, want %v", c.proto, c.from, c.to, c.elapsed, got, c.want)
			}
		})
	}
}

func TestFaultPlanRoundTrip(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Name: "cut", From: "10.0.0.1", To: "10.0.0.9:427", Proto: "udp",
			Start: 2 * time.Millisecond, End: 6 * time.Millisecond, Partition: true},
		{From: "10.0.1.*", Loss: 0.3, Delay: time.Millisecond, DelayJitter: 500 * time.Microsecond,
			Duplicate: 0.25, DuplicateDelay: time.Millisecond, Reorder: 0.1, ReorderDelay: 2 * time.Millisecond},
		{Name: "garbage", To: "10.0.0.5", Proto: "udp", Corrupt: 0.2, Truncate: 0.1},
	}}
	text := FormatFaultPlan(plan)
	got, err := ParseFaultPlan(text)
	if err != nil {
		t.Fatalf("parse formatted plan: %v\n%s", err, text)
	}
	if len(got.Rules) != len(plan.Rules) {
		t.Fatalf("round trip lost rules: %d -> %d", len(plan.Rules), len(got.Rules))
	}
	for i := range plan.Rules {
		if got.Rules[i] != plan.Rules[i] {
			t.Fatalf("rule %d changed:\n  in:  %+v\n  out: %+v", i, plan.Rules[i], got.Rules[i])
		}
	}
	if again := FormatFaultPlan(got); again != text {
		t.Fatalf("format not stable:\n%s\nvs\n%s", text, again)
	}
}

func TestParseFaultPlanCommentsAndErrors(t *testing.T) {
	p, err := ParseFaultPlan("# a comment\n\nfault loss=0.5\n")
	if err != nil || len(p.Rules) != 1 || p.Rules[0].Loss != 0.5 {
		t.Fatalf("comment handling: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"loss=0.5",              // missing keyword
		"fault loss=1.5",        // probability out of range
		"fault proto=tcp",       // unknown proto
		"fault delay=fast",      // bad duration
		"fault nonsense=1",      // unknown key
		"fault partition=maybe", // partition takes no value
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
	if p, err := ParseFaultPlan(""); err != nil || !p.Empty() {
		t.Fatalf("empty input: %+v, %v", p, err)
	}
}

func TestFormatFaultRuleOmitsZeroFields(t *testing.T) {
	got := FormatFaultRule(FaultRule{Loss: 0.5})
	if got != "fault loss=0.5" {
		t.Fatalf("got %q", got)
	}
	if strings.Contains(FormatFaultRule(FaultRule{Partition: true}), "=") {
		t.Fatalf("bare partition rule grew key=value fields: %q", FormatFaultRule(FaultRule{Partition: true}))
	}
}

// TestParseFaultRuleRefusesOutOfRange: a line that parses but cannot
// mean anything is refused, and the error names the field.
func TestParseFaultRuleRefusesOutOfRange(t *testing.T) {
	for _, tc := range []struct{ line, field string }{
		{"fault loss=NaN", "loss"},
		{"fault dup=NaN", "dup"},
		{"fault reorder=nan", "reorder"},
		{"fault corrupt=-0.1", "corrupt"},
		{"fault truncate=+Inf", "truncate"},
		{"fault delay=-1ms", "delay"},
		{"fault jitter=-1ms", "jitter"},
		{"fault dupdelay=-1ms", "dupdelay"},
		{"fault reorderdelay=-1ms", "reorderdelay"},
		{"fault start=-1s", "start"},
		{"fault start=2s end=1s partition", "end"},
		{"fault start=1s end=1s loss=1", "end"},
	} {
		_, err := ParseFaultRule(tc.line)
		if err == nil {
			t.Errorf("ParseFaultRule(%q) accepted", tc.line)
			continue
		}
		if !strings.Contains(err.Error(), tc.field+"=") {
			t.Errorf("ParseFaultRule(%q) = %v, which does not name %s", tc.line, err, tc.field)
		}
	}
}
