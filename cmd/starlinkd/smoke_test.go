package main

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"starlink"
	"starlink/internal/promtext"
	"starlink/internal/registry"
)

// demoCases are the seven example cases the smoke test expects the
// daemon to host: the six builtins plus the hot-deployable alt entry
// from examples/models.
var demoCases = []string{
	"bonjour-to-slp", "bonjour-to-upnp",
	"slp-to-bonjour", "slp-to-upnp", "slp-to-upnp-alt",
	"upnp-to-bonjour", "upnp-to-slp",
}

// TestSmokeMetricsSurface deploys the dispatcher exactly as main does
// (builtin models plus examples/models, loopback runtime, Collector
// observing), runs one round of demo traffic, and asserts that the
// /metrics exposition parses, exposes per-stage latency histograms for
// all seven cases, and shows the traffic — including the deliberate
// parse error. It holds every series assertion about a scrape; CI's
// smoke step only starts the binary and fetches its pages.
func TestSmokeMetricsSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock demo traffic")
	}
	reg, err := starlink.BuiltinRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ireg := reg.Backend().(*registry.Registry)
	if _, err := registry.LoadFS(ireg, os.DirFS("../../examples/models")); err != nil {
		t.Fatal(err)
	}
	rt := starlink.Loopback()
	fw := starlink.NewWithRegistry(rt, reg)
	col := starlink.NewCollector()
	// This package deploys on real sockets at its own 127/8 host (see the
	// root package's loopbackHost).
	const host = "127.0.0.7"
	disp, err := fw.DeployDispatcher(context.Background(), host, nil,
		starlink.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	col.Register("starlinkd", disp)

	hosted := disp.Cases()
	if len(hosted) != len(demoCases) {
		t.Fatalf("hosted cases = %v, want %v", hosted, demoCases)
	}

	if err := runDemo(rt, host, 1, hosted); err != nil {
		t.Fatalf("demo traffic: %v", err)
	}

	scrape := func() *promtext.Exposition {
		rec := httptest.NewRecorder()
		col.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /metrics = %d", rec.Code)
		}
		exp, err := promtext.Parse(strings.NewReader(rec.Body.String()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		return exp
	}

	// The demo's lookups complete asynchronously; poll until the
	// traffic is visible or the deadline passes.
	deadline := time.Now().Add(30 * time.Second)
	var exp *promtext.Exposition
	for {
		exp = scrape()
		dispatched := sum(exp.Find("starlink_dispatch_total",
			map[string]string{"result": "dispatched"}))
		parseErrs := sum(exp.Find("starlink_dispatch_total",
			map[string]string{"result": "parse_errors"}))
		altDone := sum(exp.Find("starlink_sessions_total",
			map[string]string{"case": "slp-to-upnp-alt", "result": "completed"}))
		if dispatched > 0 && parseErrs > 0 && altDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic not visible: dispatched=%v parse_errors=%v alt_completed=%v",
				dispatched, parseErrs, altDone)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Per-stage latency histograms for every hosted case.
	for _, cs := range demoCases {
		for _, stage := range []string{"classify", "recv", "parse", "transition", "translate", "compose", "send", "session"} {
			series := exp.Find("starlink_stage_latency_seconds_count",
				map[string]string{"case": cs, "stage": stage})
			if len(series) != 1 {
				t.Errorf("case %s stage %s: %d series, want 1", cs, stage, len(series))
			}
		}
	}
	// The alt case completed a session, so its whole pipeline is warm.
	for _, stage := range []string{"recv", "parse", "transition", "translate", "compose", "send", "session"} {
		if n := sum(exp.Find("starlink_stage_latency_seconds_count",
			map[string]string{"case": "slp-to-upnp-alt", "stage": stage})); n == 0 {
			t.Errorf("alt case stage %s histogram is empty", stage)
		}
	}
	// Each row's selector must match a sample; a nonzero row's samples
	// must also sum above 0: the session histograms, the drop counters,
	// the lane series and the transport counters always exist, and the
	// demo's traffic moves the rest — the deliberate parse error included.
	for _, row := range []struct {
		selector string
		nonzero  bool
	}{
		{`starlink_stage_latency_seconds_count{case="slp-to-upnp",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="slp-to-bonjour",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="slp-to-upnp-alt",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="upnp-to-slp",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="upnp-to-bonjour",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="bonjour-to-upnp",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="bonjour-to-slp",stage="session"}`, false},
		{`starlink_stage_latency_seconds_count{case="slp-to-upnp-alt",stage="send"}`, true},
		{`starlink_drops_total{reason="overloaded"}`, false},
		{`starlink_drops_total{reason="draining"}`, false},
		{`starlink_drops_total{reason="closed"}`, false},
		{`starlink_drops_total{reason="stale"}`, false},
		{`starlink_requester_lends_total{case="slp-to-bonjour",result="opened"}`, true},
		{`starlink_lane_depth{lane="control"}`, false},
		{`starlink_lane_depth{lane="data"}`, false},
		{`starlink_lane_depth{lane="telemetry"}`, false},
		{`starlink_lane_shed_total{lane="telemetry"}`, false},
		{`starlink_lane_wait_seconds_count{lane="telemetry"}`, false},
		{`starlink_lane_wait_seconds_count{lane="control"}`, true},
		{`starlink_dispatch_total{result="dispatched"}`, true},
		{`starlink_dispatch_total{result="parse_errors"}`, true},
		{`starlink_classify_latency_seconds_count`, true},
		{`starlink_udp_recv_batches_total`, false},
		{`starlink_udp_recv_batch_packets_total`, false},
		{`starlink_udp_send_batch_packets_total`, false},
		{`starlink_stream_flushes_total`, false},
	} {
		sel, err := promtext.Parse(strings.NewReader(row.selector + " 0\n"))
		if err != nil {
			t.Fatalf("selector %s: %v", row.selector, err)
		}
		matches := exp.Find(sel.Samples[0].Name, sel.Samples[0].Labels)
		switch {
		case len(matches) == 0:
			t.Errorf("no samples match %s", row.selector)
		case row.nonzero && sum(matches) <= 0:
			t.Errorf("%s: %d sample(s) sum to %v, want > 0", row.selector, len(matches), sum(matches))
		}
	}

	// The debug pages serve.
	for _, path := range []string{"/debug/starlink/", "/debug/starlink/sessions", "/debug/starlink/failures"} {
		rec := httptest.NewRecorder()
		col.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}

func sum(samples []promtext.Sample) float64 {
	var s float64
	for _, v := range samples {
		s += v.Value
	}
	return s
}
