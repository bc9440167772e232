package starlink_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starlink"
	"starlink/internal/promtext"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/simnet"
)

// scrape serves path from the collector and returns the body.
func scrape(t *testing.T, c *starlink.Collector, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// TestCollectorExposition runs real traffic through a bridge with a
// Collector attached and asserts the full observability surface: a
// parseable Prometheus exposition with per-stage latency histograms
// and drop counters, plus the plain text debug pages.
func TestCollectorExposition(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	col := starlink.NewCollector()
	bridge, err := fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour",
		starlink.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	col.Register("bridge", bridge)

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
	done := false
	ua.Lookup("service:printer", func(slp.LookupResult) { done = true })
	if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}

	exp, err := promtext.Parse(strings.NewReader(scrape(t, col, "/metrics")))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if typ := exp.Types["starlink_stage_latency_seconds"]; typ != "histogram" {
		t.Errorf("stage latency TYPE = %q, want histogram", typ)
	}
	// Every pipeline stage plus the session row must expose a series
	// for the case; the stages this scenario exercises must be nonzero.
	for _, stage := range []string{"classify", "recv", "parse", "transition", "translate", "compose", "send", "session"} {
		cnt := exp.Find("starlink_stage_latency_seconds_count",
			map[string]string{"deployment": "bridge", "case": "slp-to-bonjour", "stage": stage})
		if len(cnt) != 1 {
			t.Fatalf("stage %q: %d count series, want 1", stage, len(cnt))
		}
		switch stage {
		case "recv", "parse", "transition", "translate", "compose", "send", "session":
			if cnt[0].Value == 0 {
				t.Errorf("stage %q histogram is empty after a completed session", stage)
			}
		}
	}
	// Drop counters always exist, zero-valued when nothing dropped.
	for _, reason := range []string{"overloaded", "draining", "closed", "ambiguous", "other", "stale"} {
		ds := exp.Find("starlink_drops_total", map[string]string{"reason": reason})
		if len(ds) != 1 {
			t.Errorf("drops_total{reason=%q}: %d series, want 1", reason, len(ds))
		}
	}
	// Lane series always exist for every lane, even when nothing queued
	// or shed; the control lane's wait histogram saw this scenario's
	// entry payloads.
	if typ := exp.Types["starlink_lane_wait_seconds"]; typ != "histogram" {
		t.Errorf("lane wait TYPE = %q, want histogram", typ)
	}
	for _, lane := range []string{"control", "data", "telemetry"} {
		labels := map[string]string{"deployment": "bridge", "lane": lane}
		if ds := exp.Find("starlink_lane_depth", labels); len(ds) != 1 {
			t.Errorf("lane_depth{lane=%q}: %d series, want 1", lane, len(ds))
		}
		if ds := exp.Find("starlink_lane_shed_total", labels); len(ds) != 1 || ds[0].Value != 0 {
			t.Errorf("lane_shed_total{lane=%q} = %+v, want one zero series", lane, ds)
		}
		if ds := exp.Find("starlink_lane_wait_seconds_count", labels); len(ds) != 1 {
			t.Errorf("lane_wait_seconds_count{lane=%q}: %d series, want 1", lane, len(ds))
		}
	}
	waits := exp.Find("starlink_lane_wait_seconds_count",
		map[string]string{"deployment": "bridge", "lane": "control"})
	if len(waits) != 1 || waits[0].Value == 0 {
		t.Errorf("control lane wait histogram empty after a session: %+v", waits)
	}
	comp := exp.Find("starlink_sessions_total",
		map[string]string{"deployment": "bridge", "case": "slp-to-bonjour", "result": "completed"})
	if len(comp) != 1 || comp[0].Value != 1 {
		t.Errorf("sessions_total completed = %+v, want 1", comp)
	}
	obs := exp.Find("starlink_observed_sessions_total", map[string]string{"result": "completed"})
	if len(obs) != 1 || obs[0].Value != 1 {
		t.Errorf("observed completed = %+v, want 1", obs)
	}
	// The session's mDNS requester was opened for lending and is idle now.
	for result, want := range map[string]float64{"opened": 1, "reused": 0} {
		ds := exp.Find("starlink_requester_lends_total",
			map[string]string{"deployment": "bridge", "case": "slp-to-bonjour", "result": result})
		if len(ds) != 1 || ds[0].Value != want {
			t.Errorf("requester_lends_total{result=%q} = %+v, want %v", result, ds, want)
		}
	}

	// Histogram internal consistency: buckets cumulative, +Inf == count.
	buckets := exp.Find("starlink_stage_latency_seconds_bucket",
		map[string]string{"deployment": "bridge", "case": "slp-to-bonjour", "stage": "session"})
	last := -1.0
	for _, b := range buckets {
		if b.Value < last {
			t.Errorf("session buckets not cumulative: %v after %v", b.Value, last)
		}
		last = b.Value
	}
	if len(buckets) == 0 || buckets[len(buckets)-1].Labels["le"] != "+Inf" || buckets[len(buckets)-1].Value != 1 {
		t.Errorf("session +Inf bucket = %+v, want 1", buckets[len(buckets)-1:])
	}

	idx := scrape(t, col, "/debug/starlink/")
	if !strings.Contains(idx, "slp-to-bonjour") || !strings.Contains(idx, "stage") || !strings.Contains(idx, "requesters: idle=1 lends=1 opens=1") {
		t.Errorf("debug index missing case/latency rows:\n%s", idx)
	}
	if got := scrape(t, col, "/debug/starlink/sessions"); !strings.Contains(got, "0 live session(s)") {
		t.Errorf("sessions page = %q", got)
	}
}

// TestFailedSessionCarriesTrace force-closes a bridge with a live
// session and asserts the failure's SessionStats carries the
// flight-recorder trace, that the trace round-trips through its text
// form, and that the live session was visible via Sessions() first.
func TestFailedSessionCarriesTrace(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	col := starlink.NewCollector()
	var failed []starlink.SessionStats
	bridge, err := fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour",
		starlink.WithObserver(col),
		starlink.WithObserver(starlink.Hooks{
			SessionEnd: func(s starlink.SessionStats) {
				if s.Err != nil {
					failed = append(failed, s)
				}
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	col.Register("bridge", bridge)

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond))
	ua.Lookup("service:printer", func(slp.LookupResult) {})
	if err := rt.RunUntil(func() bool { return bridge.Metrics().Sessions.Live == 1 }, time.Minute); err != nil {
		t.Fatalf("no live session: %v", err)
	}

	live := bridge.Sessions()
	if len(live) != 1 || live[0].Case != "slp-to-bonjour" || len(live[0].Trace) == 0 {
		t.Fatalf("live sessions = %+v, want one with a trace", live)
	}
	if got := scrape(t, col, "/debug/starlink/sessions"); !strings.Contains(got, "1 live session(s)") ||
		!strings.Contains(got, "trace:") {
		t.Errorf("sessions page while live = %q", got)
	}

	// Tear the bridge down mid-session: the cut-off session fails and
	// must surface its trace.
	if err := bridge.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(failed) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(failed) != 1 {
		t.Fatalf("failed sessions = %d, want 1", len(failed))
	}
	tr := failed[0].Trace
	if len(tr) == 0 {
		t.Fatal("failed session carries no trace")
	}
	sawRecv := false
	for _, ev := range tr {
		if ev.Stage == "recv" {
			sawRecv = true
		}
	}
	if !sawRecv {
		t.Errorf("trace has no recv event: %s", starlink.FormatTrace(tr))
	}

	text := starlink.FormatTrace(tr)
	back, err := starlink.ParseTrace(text)
	if err != nil {
		t.Fatalf("ParseTrace(%q): %v", text, err)
	}
	if fmt.Sprint(back) != fmt.Sprint(tr) {
		t.Errorf("trace did not round-trip:\n got %v\nwant %v", back, tr)
	}

	// The collector retained the failure; its debug page shows the trace.
	if got := scrape(t, col, "/debug/starlink/failures"); !strings.Contains(got, "1 recent failure(s)") ||
		!strings.Contains(got, "trace:") {
		t.Errorf("failures page = %q", got)
	}
}

// TestCollectorDropClassification feeds structured drops straight into
// the observer interface and checks the errors.Is classification.
func TestCollectorDropClassification(t *testing.T) {
	col := starlink.NewCollector()
	col.OnDrop(starlink.Drop{Reason: fmt.Errorf("case x: %w", starlink.ErrOverloaded)})
	col.OnDrop(starlink.Drop{Reason: fmt.Errorf("case x: %w", starlink.ErrOverloaded)})
	col.OnDrop(starlink.Drop{Reason: fmt.Errorf("late: %w", starlink.ErrDraining)})
	col.OnDrop(starlink.Drop{Reason: fmt.Errorf("payload: %w", starlink.ErrAmbiguousPayload)})
	col.OnDrop(starlink.Drop{Reason: fmt.Errorf("whatever")})

	exp, err := promtext.Parse(strings.NewReader(scrape(t, col, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"overloaded": 2, "draining": 1, "closed": 0, "ambiguous": 1, "other": 1}
	for reason, n := range want {
		ds := exp.Find("starlink_drops_total", map[string]string{"reason": reason})
		if len(ds) != 1 || ds[0].Value != n {
			t.Errorf("drops_total{reason=%q} = %+v, want %v", reason, ds, n)
		}
	}
}
