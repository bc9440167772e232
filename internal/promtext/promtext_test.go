package promtext

import (
	"math"
	"strings"
	"testing"
)

func TestWriterRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Family("starlink_sessions_total", "Finished sessions.", "counter")
	w.Sample("starlink_sessions_total", []Label{
		{Name: "case", Value: "slp-to-upnp"},
		{Name: "result", Value: "completed"},
	}, 42)
	w.Family("starlink_stage_latency_seconds", "Per-stage latency.", "histogram")
	w.HistogramSample("starlink_stage_latency_seconds", []Label{
		{Name: "case", Value: "slp-to-upnp"},
		{Name: "stage", Value: "parse"},
	}, []Bucket{
		{Le: 0.001, Count: 10},
		{Le: 0.01, Count: 12},
	}, 0.0315, 12)
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	exp, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, sb.String())
	}
	if got := exp.Types["starlink_sessions_total"]; got != "counter" {
		t.Errorf("type = %q, want counter", got)
	}
	if got := exp.Types["starlink_stage_latency_seconds"]; got != "histogram" {
		t.Errorf("type = %q, want histogram", got)
	}
	ss := exp.Find("starlink_sessions_total", map[string]string{"result": "completed"})
	if len(ss) != 1 || ss[0].Value != 42 {
		t.Errorf("sessions sample = %+v", ss)
	}
	// The writer must have added the +Inf bucket.
	inf := exp.Find("starlink_stage_latency_seconds_bucket", map[string]string{"le": "+Inf"})
	if len(inf) != 1 || inf[0].Value != 12 {
		t.Errorf("+Inf bucket = %+v", inf)
	}
	if n := len(exp.Find("starlink_stage_latency_seconds_bucket", nil)); n != 3 {
		t.Errorf("bucket count = %d, want 3", n)
	}
	cnt := exp.Find("starlink_stage_latency_seconds_count", nil)
	if len(cnt) != 1 || cnt[0].Value != 12 {
		t.Errorf("count = %+v", cnt)
	}
	sum := exp.Find("starlink_stage_latency_seconds_sum", nil)
	if len(sum) != 1 || math.Abs(sum[0].Value-0.0315) > 1e-12 {
		t.Errorf("sum = %+v", sum)
	}
}

func TestLabelEscaping(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Sample("m", []Label{{Name: "k", Value: "a\"b\\c\nd"}}, 1)
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	exp, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, sb.String())
	}
	ms := exp.Find("m", nil)
	if len(ms) != 1 || ms[0].Labels["k"] != "a\"b\\c\nd" {
		t.Errorf("escaped label did not round-trip: %+v", ms)
	}
}

func TestParseSpecialValues(t *testing.T) {
	exp, err := Parse(strings.NewReader("a 1\nb{x=\"y\"} +Inf\nc NaN\nd -Inf\ne 1.5e-3 1712345678\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v := exp.Find("b", nil)[0].Value; !math.IsInf(v, 1) {
		t.Errorf("b = %v, want +Inf", v)
	}
	if v := exp.Find("c", nil)[0].Value; !math.IsNaN(v) {
		t.Errorf("c = %v, want NaN", v)
	}
	if v := exp.Find("d", nil)[0].Value; !math.IsInf(v, -1) {
		t.Errorf("d = %v, want -Inf", v)
	}
	if v := exp.Find("e", nil)[0].Value; math.Abs(v-0.0015) > 1e-12 {
		t.Errorf("e = %v, want 0.0015 (timestamp must be ignored)", v)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"1bad 2",
		"m{unquoted=3} 1",
		"m{k=\"v} 1",
		"m{k=\"v\"",
		"m",
		"m notanumber",
		"# TYPE m wat",
	} {
		if _, err := Parse(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestNames(t *testing.T) {
	exp, err := Parse(strings.NewReader("b 1\na 2\nb 3\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	names := exp.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

// FuzzPromtextRoundTrip holds the two halves of the format to each
// other: a family Writer emits reads back through Parse with its help,
// and its sample with its name, labels and value, whatever bytes the
// help and label value hold; and Parse returns an error, never a
// panic, on an arbitrary document.
func FuzzPromtextRoundTrip(f *testing.F) {
	f.Add("starlink_sessions_total", "Finished sessions.", "case", "slp-to-upnp", 42.0, "# TYPE m gauge\nm 1\n")
	f.Add("m", `a\b`, "l", `back\slash "quoted"`, 1.5, "m{l=\"\\q\"} 1\n")
	f.Add("m", "two\nlines", "l", "two\nlines", math.Inf(-1), "# HELP m a\\\n")
	f.Add("m", `ends in \`, "le", "+Inf", math.NaN(), "m{l=\"x\",} NaN 123\n")
	f.Add("m", "trailing blank \t", "l", "", -0.0, "# HELP\n# TYPE m\n")
	f.Add("m", "carriage return\r", "l", "\xff\xfe", 1e-300, "m{\n")
	f.Add("m", "not\\utf-8 \xff", "l", "\xff\"\r", 7.0, "{} 1\n")
	f.Fuzz(func(t *testing.T, name, help, label, value string, v float64, doc string) {
		_, _ = Parse(strings.NewReader(doc))
		if !validName(name) || !validName(label) || help == "" {
			return
		}
		var sb strings.Builder
		w := NewWriter(&sb)
		w.Family(name, help, "gauge")
		w.Sample(name, []Label{{Name: label, Value: value}}, v)
		exp, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("Parse of Writer output: %v\n%q", err, sb.String())
		}
		if got := exp.Help[name]; got != help {
			t.Errorf("help = %q, want %q", got, help)
		}
		if exp.Types[name] != "gauge" {
			t.Errorf("type = %q, want gauge", exp.Types[name])
		}
		if len(exp.Samples) != 1 {
			t.Fatalf("%d samples, want 1\n%q", len(exp.Samples), sb.String())
		}
		s := exp.Samples[0]
		if s.Name != name || len(s.Labels) != 1 || s.Labels[label] != value {
			t.Errorf("sample %q %q, want %q {%q=%q}", s.Name, s.Labels, name, label, value)
		}
		if s.Value != v && !(math.IsNaN(s.Value) && math.IsNaN(v)) {
			t.Errorf("value = %v, want %v", s.Value, v)
		}
	})
}
