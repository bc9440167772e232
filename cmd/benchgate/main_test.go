package main

import (
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	const expected = `{
		"w": {
			"allocs_per_interaction":      {"value": 104.25, "tol": 0.5, "spread": "104.24-104.26"},
			"alloc_bytes_per_interaction": {"value": 9522, "tol": 95}
		},
		"timed": {"latency_p50_us": {"value": 45, "tol": 5}}
	}`
	// run renders a benchmark run's output: the human-readable lines, then
	// the result object on the last one.
	run := func(correct, allocs, bytes string) string {
		return "w seed 7: 10 segments x 1s\n  allocs_per_interaction  104.2500 count  median of 10 segments\n" +
			`{"correct":` + correct + `,"attempted":100,"failed":0,"metrics":{` + allocs + bytes +
			`"latency_p50_us":{"value":45.4,"unit":"us"}}}` + "\n"
	}
	allocs := func(v string) string { return `"allocs_per_interaction":{"value":` + v + `,"unit":"count"},` }
	const bytes = `"alloc_bytes_per_interaction":{"value":9526.6,"unit":"B"},`
	for _, tc := range []struct {
		name, set, output string
		want              []string // substrings of the error; none means the gate passes
	}{
		{"level", "w", run("true", allocs("104.26"), bytes), nil},
		{"one allocation more", "w", run("true", allocs("105.26"), bytes), []string{"1 of 2 rows", "allocs_per_interaction = 105.260"}},
		{"one allocation fewer", "w", run("true", allocs("103.26"), bytes), []string{"allocs_per_interaction = 103.260"}},
		{"on the edge of tol", "w", run("true", allocs("104.75"), bytes), nil},
		{"just past tol", "w", run("true", allocs("104.751"), bytes), []string{"allocs_per_interaction"}},
		{"listed row not printed", "w", run("true", allocs("104.26"), ""), []string{"alloc_bytes_per_interaction: listed, but the run did not print it"}},
		{"run failed its checks", "w", run("false", allocs("104.26"), bytes), []string{`"correct":false`}},
		{"a timing is listed", "timed", run("true", allocs("104.26"), bytes), []string{"latency_p50_us", "timings are not gated"}},
		{"unknown row set", "nope", run("true", allocs("104.26"), bytes), []string{`no rows under "nope"`}},
		{"no result object", "w", "FAILED CHECK: leaked a goroutine\n", []string{"last line is not a result object"}},
	} {
		err := gate([]byte(expected), tc.set, strings.NewReader(tc.output))
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: %v, want a pass", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: passed, want an error naming %q", tc.name, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
}
