package starlink_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/promtext"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/registry"
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
	for _, reason := range []string{"overloaded", "draining", "closed", "stale"} {
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

// TestExpositionMatchesEvents drives three faults through a bridge
// on the simulator and holds the exposition to the events: each
// starlink_drops_total{reason} equals the drops an observer classified
// by errors.Is, and starlink_sessions_total the sessions it saw end.
// The Collector counts nothing itself, so the two can only agree if
// the deployments' counters and their events do.
func TestExpositionMatchesEvents(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	var closed, draining, overloaded, completed, failed atomic.Int64
	tally := starlink.Hooks{
		Drop: func(d starlink.Drop) {
			switch {
			case errors.Is(d.Reason, starlink.ErrClosed):
				closed.Add(1)
			case errors.Is(d.Reason, starlink.ErrDraining):
				draining.Add(1)
			case errors.Is(d.Reason, starlink.ErrOverloaded):
				overloaded.Add(1)
			default:
				t.Errorf("drop with no structured reason: %v", d.Reason)
			}
		},
		SessionEnd: func(s starlink.SessionStats) {
			if s.Err == nil {
				completed.Add(1)
			} else {
				failed.Add(1)
			}
		},
	}
	col := starlink.NewCollector()
	bridge, err := fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour",
		starlink.WithMaxSessions(1), starlink.WithObserver(col), starlink.WithObserver(tally))
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	col.Register("bridge", bridge)

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	lookup := func(ip string, wait time.Duration) *bool {
		node, err := sim.NewNode(ip)
		if err != nil {
			t.Fatal(err)
		}
		done := new(bool)
		slp.NewUserAgent(node, slp.WithConvergenceWait(wait)).
			Lookup("service:printer", func(slp.LookupResult) { *done = true })
		return done
	}

	// Overload: two clients at once against one session slot.
	a, b := lookup("10.0.0.1", 300*time.Millisecond), lookup("10.0.0.2", 300*time.Millisecond)
	if err := rt.RunUntil(func() bool { return *a && *b }, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Stale: every answer of the service is repeated after its session
	// ended, on the requester socket the session was lent. The clock runs
	// past the repeats before the next session can borrow that socket.
	sim.InstallFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{
		{From: "10.0.0.9", Proto: "udp", Duplicate: 1, DuplicateDelay: 400 * time.Millisecond},
	}})
	c := lookup("10.0.0.3", 300*time.Millisecond)
	if err := rt.RunUntil(func() bool { return *c }, time.Minute); err != nil {
		t.Fatal(err)
	}
	rt.Run(time.Second)
	sim.InstallFaults(nil)

	// Draining: an initiator arrives after Shutdown has begun, while a
	// session is still live.
	lookup("10.0.0.4", 500*time.Millisecond)
	if err := rt.RunUntil(func() bool { return bridge.Metrics().Sessions.Live == 1 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- bridge.Shutdown(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); bridge.State() != starlink.StateDraining; {
		if time.Now().After(deadline) {
			t.Fatalf("bridge never reached Draining (state %v)", bridge.State())
		}
		time.Sleep(time.Millisecond)
	}
	late := lookup("10.0.0.6", 200*time.Millisecond)
	if err := rt.RunUntil(func() bool { return *late && draining.Load() > 0 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return bridge.Metrics().Sessions.Live == 0 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-res:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the last session drained")
	}

	exp, err := promtext.Parse(strings.NewReader(scrape(t, col, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	m := bridge.Metrics()
	if overloaded.Load() == 0 || draining.Load() == 0 || m.Sessions.Stale == 0 {
		t.Fatalf("a fault did not show: overloaded=%d draining=%d stale=%d",
			overloaded.Load(), draining.Load(), m.Sessions.Stale)
	}
	for reason, want := range map[string]int64{
		"overloaded": overloaded.Load(),
		"draining":   draining.Load(),
		"closed":     closed.Load(),
		// Stale replies are counted, not reported one by one.
		"stale": int64(m.Sessions.Stale),
	} {
		ds := exp.Find("starlink_drops_total", map[string]string{"reason": reason})
		if len(ds) != 1 || ds[0].Value != float64(want) {
			t.Errorf("drops_total{reason=%q} = %+v, observed %d", reason, ds, want)
		}
	}
	for result, want := range map[string]int64{"completed": completed.Load(), "failed": failed.Load()} {
		ds := exp.Find("starlink_sessions_total", map[string]string{"result": result})
		if len(ds) != 1 || ds[0].Value != float64(want) {
			t.Errorf("sessions_total{result=%q} = %+v, observed %d", result, ds, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a scrape
// benchmark prices the exposition and not a growing recorder.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// BenchmarkCollectorScrape prices one /metrics scrape of a dispatcher
// hosting five cases, the dispatch_mix workload's set.
func BenchmarkCollectorScrape(b *testing.B) {
	reg, err := starlink.BuiltinRegistry()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := registry.LoadFS(reg.Backend().(*registry.Registry), os.DirFS("examples/models")); err != nil {
		b.Fatal(err)
	}
	col := starlink.NewCollector()
	disp, err := starlink.NewWithRegistry(starlink.Simulated(), reg).DeployDispatcher(context.Background(), "10.0.0.5",
		[]string{"slp-to-bonjour", "slp-to-upnp", "upnp-to-bonjour", "bonjour-to-upnp", "slp-to-upnp-alt"},
		starlink.WithObserver(col))
	if err != nil {
		b.Fatal(err)
	}
	defer disp.Close()
	col.Register("dispatcher", disp)
	h := col.Handler()
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		h.ServeHTTP(w, req)
	}
}
