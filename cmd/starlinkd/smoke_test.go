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

// TestSmokeMetricsSurface is the in-process version of the CI smoke
// step: deploy the dispatcher exactly as main does (builtin models
// plus examples/models, loopback runtime, Collector observing), run
// one round of demo traffic, and assert the /metrics exposition
// parses, exposes per-stage latency histograms for all seven cases,
// and shows the traffic — including the deliberate parse error.
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
	const host = "127.0.0.1"
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
	// Drop counters are always exposed.
	for _, reason := range []string{"overloaded", "draining", "closed", "stale"} {
		if n := len(exp.Find("starlink_drops_total", map[string]string{"reason": reason})); n != 1 {
			t.Errorf("drops_total{reason=%q}: %d series, want 1", reason, n)
		}
	}
	// Classification latency histograms exist for the dispatcher.
	if n := sum(exp.Find("starlink_classify_latency_seconds_count", nil)); n == 0 {
		t.Error("classification latency histograms are empty")
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
