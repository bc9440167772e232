package starlink_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
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
	for _, stage := range []string{"classify", "recv", "parse", "transition", "translate", "compose", "send", "peer", "session"} {
		cnt := exp.Find("starlink_stage_latency_seconds_count",
			map[string]string{"deployment": "bridge", "case": "slp-to-bonjour", "stage": stage})
		if len(cnt) != 1 {
			t.Fatalf("stage %q: %d count series, want 1", stage, len(cnt))
		}
		switch stage {
		case "recv", "parse", "transition", "translate", "compose", "send", "peer", "session":
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
	if !strings.Contains(idx, "slp-to-bonjour") || !strings.Contains(idx, "stage") || !strings.Contains(idx, "requester_lends_total reused=0 opened=1 | requesters_idle 1") {
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

// fiveCaseScrape returns one /metrics scrape of a dispatcher hosting
// five cases, the dispatch_mix workload's set, into a writer that keeps
// nothing.
func fiveCaseScrape(tb testing.TB) func() {
	reg, err := starlink.BuiltinRegistry()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := registry.LoadFS(reg.Backend().(*registry.Registry), os.DirFS("examples/models")); err != nil {
		tb.Fatal(err)
	}
	col := starlink.NewCollector()
	disp, err := starlink.NewWithRegistry(starlink.Simulated(), reg).DeployDispatcher(context.Background(), "10.0.0.5",
		[]string{"slp-to-bonjour", "slp-to-upnp", "upnp-to-bonjour", "bonjour-to-upnp", "slp-to-upnp-alt"},
		starlink.WithObserver(col))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { disp.Close() })
	col.Register("dispatcher", disp)
	h := col.Handler()
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := discardWriter{h: http.Header{}}
	return func() { h.ServeHTTP(w, req) }
}

// BenchmarkCollectorScrape prices one /metrics scrape of a dispatcher
// hosting five cases.
func BenchmarkCollectorScrape(b *testing.B) {
	scrape := fiveCaseScrape(b)
	b.ReportAllocs()
	for b.Loop() {
		scrape()
	}
}

// TestCollectorScrapeAllocs bounds what a five-case scrape allocates:
// the deployments' Metrics snapshots, and next to nothing per series.
func TestCollectorScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	if n := testing.AllocsPerRun(20, fiveCaseScrape(t)); n > 500 {
		t.Errorf("a five-case scrape allocates %.0f times, want <= 500", n)
	}
}

// fakeDeployment serves a Metrics snapshot the test writes.
type fakeDeployment struct{ m starlink.Metrics }

func (d *fakeDeployment) State() starlink.State              { return d.m.State }
func (d *fakeDeployment) Metrics() starlink.Metrics          { return d.m }
func (d *fakeDeployment) Sessions() []starlink.SessionInfo   { return nil }
func (d *fakeDeployment) Shutdown(ctx context.Context) error { return nil }
func (d *fakeDeployment) Close() error                       { return nil }

// zeroMetrics is a Metrics with one of every row and every number 0.
func zeroMetrics() starlink.Metrics {
	row := func(stage string) starlink.StageLatency {
		return starlink.StageLatency{Stage: stage, Buckets: make([]starlink.LatencyBucket, 2)}
	}
	rows := func() []starlink.StageLatency { return []starlink.StageLatency{row("parse"), row("session")} }
	return starlink.Metrics{
		Cases:       map[string]starlink.SessionMetrics{"c": {}},
		CaseLatency: map[string][]starlink.StageLatency{"c": rows()},
		Latency:     rows(),
		Lanes:       []starlink.LaneMetrics{{Lane: "control", Wait: row("control")}},
		Dispatch:    starlink.DispatchMetrics{FastPathLatency: row("classify"), SlowPathLatency: row("classify")},
	}
}

// notASeries lists the Metrics leaves /metrics does not expose, each
// with the reason. A leaf matching no row must move the scrape.
var notASeries = []struct{ leaf, why string }{
	{`^Dispatch\.FastPath$`, "the sum of dispatch_total's dispatched, rejected, unroutable and parse_errors"},
	{`^Dispatch\.SlowPath$`, "always 0: there is one classification path"},
	{`^Dispatch\.SlowPathLatency\.`, "always empty: there is one classification path"},
	{`\.P(50|90|99)$`, "estimates read off the buckets, which are exposed"},
	{`^Sessions\.(Live|Completed|Failed|ParseErrors|Ignored|Ingested|IngestedBatched|RequesterLends|RequesterOpens|RequestersIdle)$`,
		"the sum of the per-case rows, each exposed"},
	{`^Latency\[`, "the sum of the per-case CaseLatency rows, each exposed"},
}

// TestEveryMetricIsASeries sets one numeric leaf of Metrics at a time —
// every counter of Cases, Lanes, Dispatch and Transport, and each
// StageLatency's Count, Sum and Buckets — on a registered deployment,
// and requires the scrape to differ from the zero snapshot's unless a
// row of notASeries names the leaf. A leaf a row names must not move
// the scrape, and every row must name a leaf.
func TestEveryMetricIsASeries(t *testing.T) {
	dep := &fakeDeployment{m: zeroMetrics()}
	col := starlink.NewCollector()
	col.Register("d", dep)
	zero := scrape(t, col, "/metrics")
	if _, err := promtext.Parse(strings.NewReader(zero)); err != nil {
		t.Fatal(err)
	}
	var leaves []string
	numericLeaves(reflect.ValueOf(&dep.m).Elem(), "", func() {}, func(leaf string, _ func()) { leaves = append(leaves, leaf) })
	used := make([]bool, len(notASeries))
	for n, leaf := range leaves {
		excluded := false
		for i, row := range notASeries {
			if regexp.MustCompile(row.leaf).MatchString(leaf) {
				excluded, used[i] = true, true
			}
		}
		dep.m = zeroMetrics()
		k := 0
		numericLeaves(reflect.ValueOf(&dep.m).Elem(), "", func() {}, func(_ string, set func()) {
			if k == n {
				set()
			}
			k++
		})
		switch moved := scrape(t, col, "/metrics") != zero; {
		case !moved && !excluded:
			t.Errorf("Metrics.%s reaches no series: give it a row of collector.go's families, or a row of notASeries with its reason", leaf)
		case moved && excluded:
			t.Errorf("Metrics.%s reaches a series, but a row of notASeries names it", leaf)
		}
	}
	for i, row := range notASeries {
		if !used[i] {
			t.Errorf("notASeries row %s names no leaf of Metrics", row.leaf)
		}
	}
}

// numericLeaves calls visit with the path of every numeric leaf under v
// and a function that sets the leaf to 1; store writes v back where it
// is a copy (a map's value).
func numericLeaves(v reflect.Value, path string, store func(), visit func(leaf string, set func())) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			numericLeaves(v.Field(i), name, store, visit)
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			numericLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), store, visit)
		}
	case v.Kind() == reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			numericLeaves(e, fmt.Sprintf("%s[%s]", path, k), func() { v.SetMapIndex(k, e); store() }, visit)
		}
	case v.CanInt():
		visit(path, func() { v.SetInt(1); store() })
	case v.CanUint():
		visit(path, func() { v.SetUint(1); store() })
	}
}

// TestCollectorUnregister takes a deployment out of /metrics and the
// debug index, ignores a name it does not hold, and puts a deployment
// registered again back in name order.
func TestCollectorUnregister(t *testing.T) {
	col := starlink.NewCollector()
	col.Register("b", &fakeDeployment{m: zeroMetrics()})
	col.Register("a", &fakeDeployment{m: zeroMetrics()})
	// listed returns the deployments /metrics and the index name, in the
	// order each first names them.
	listed := func() (metrics, index []string) {
		exp, err := promtext.Parse(strings.NewReader(scrape(t, col, "/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range exp.Samples {
			if d, ok := s.Labels["deployment"]; ok && !slices.Contains(metrics, d) {
				metrics = append(metrics, d)
			}
		}
		for _, m := range regexp.MustCompile(`(?m)^deployment "([^"]*)":`).FindAllStringSubmatch(scrape(t, col, "/debug/starlink/"), -1) {
			index = append(index, m[1])
		}
		return metrics, index
	}
	check := func(step string, want ...string) {
		t.Helper()
		if m, i := listed(); !slices.Equal(m, want) || !slices.Equal(i, want) {
			t.Errorf("%s: /metrics names %q and the index %q, want %q", step, m, i, want)
		}
	}
	check("registered", "a", "b")
	col.Unregister("a")
	check(`after Unregister("a")`, "b")
	col.Unregister("x")
	check(`after Unregister("x")`, "b")
	col.Register("a", &fakeDeployment{m: zeroMetrics()})
	check(`after Register("a") again`, "a", "b")
}

// TestExpositionShape pins what /metrics serves for a two-case
// dispatcher: each family's HELP and TYPE, and its series' identities
// (name and labels, value dropped), sorted. A series renamed, relabelled
// or lost is a diff of testdata/exposition.golden; regenerate it with
// `go test -run TestExpositionShape -update .` and say why.
func TestExpositionShape(t *testing.T) {
	fw, err := starlink.New(starlink.Simulated())
	if err != nil {
		t.Fatal(err)
	}
	col := starlink.NewCollector()
	disp, err := fw.DeployDispatcher(context.Background(), "10.0.0.5",
		[]string{"slp-to-bonjour", "slp-to-upnp"}, starlink.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	col.Register("dispatcher", disp)
	exp, err := promtext.Parse(strings.NewReader(scrape(t, col, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]string{}
	for _, s := range exp.Samples {
		family := s.Name
		if base, ok := histogramFamily(exp, s.Name); ok {
			family = base
		}
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		id := s.Name
		for i, k := range keys {
			sep := ","
			if i == 0 {
				sep = "{"
			}
			id += fmt.Sprintf("%s%s=%q", sep, k, s.Labels[k])
		}
		if len(keys) > 0 {
			id += "}"
		}
		series[family] = append(series[family], id)
	}
	families := make([]string, 0, len(exp.Types))
	for f := range exp.Types {
		families = append(families, f)
	}
	sort.Strings(families)
	var buf bytes.Buffer
	buf.WriteString("# Generated by `go test -run TestExpositionShape -update .` — every family /metrics serves for a two-case dispatcher, its series sorted, values dropped.\n")
	for _, f := range families {
		fmt.Fprintf(&buf, "\n# HELP %s %s\n# TYPE %s %s\n", f, exp.Help[f], f, exp.Types[f])
		ids := series[f]
		sort.Strings(ids)
		for _, id := range ids {
			buf.WriteString(id + "\n")
		}
		delete(series, f)
	}
	for f := range series {
		t.Errorf("series of %s carry no TYPE", f)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (run `go test -run TestExpositionShape -update .`): %v", golden, err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("exposition shape changed.\nIf intentional, regenerate with `go test -run TestExpositionShape -update .`\n--- got ---\n%s", buf.String())
	}
}

// histogramFamily names the histogram family a _bucket, _sum or _count
// sample belongs to.
func histogramFamily(exp *promtext.Exposition, name string) (string, bool) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && exp.Types[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}
