package starlink

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/promtext"
)

// collectorFailureRing bounds the recent-failure trace buffer.
const collectorFailureRing = 32

// Collector turns deployments into an HTTP observability surface. It
// counts nothing itself: every series it exposes is read at scrape time
// from its registered deployments' Metrics, the counters the engines and
// dispatchers keep anyway. It plays two roles:
//
//   - a registry of named Deployments (Register) whose Metrics and
//     Sessions snapshots back the exposition;
//   - an Observer (register with WithObserver) whose only work is a ring
//     of recent failed-session flight-recorder traces. A successful
//     session costs it no lock; every other callback is empty.
//
// Handler serves the Prometheus text exposition on /metrics and plain
// text debug pages under /debug/starlink/ (index, live sessions,
// recent failures). One Collector may serve many deployments and is
// safe for concurrent use.
type Collector struct {
	mu    sync.Mutex
	names []string
	deps  map[string]Deployment

	failures []SessionStats
	failPos  int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{deps: map[string]Deployment{}}
}

// Register adds (or replaces) a named deployment in the exposition.
func (c *Collector) Register(name string, d Deployment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.deps[name]; !ok {
		c.names = append(c.names, name)
		sort.Strings(c.names)
	}
	c.deps[name] = d
}

// Unregister removes a named deployment from the exposition.
func (c *Collector) Unregister(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.deps[name]; !ok {
		return
	}
	delete(c.deps, name)
	for i, n := range c.names {
		if n == name {
			c.names = append(c.names[:i], c.names[i+1:]...)
			break
		}
	}
}

var _ Observer = (*Collector)(nil)

// OnSessionStart implements Observer.
func (c *Collector) OnSessionStart(SessionStart) {}

// OnSessionEnd implements Observer. Failed sessions (with their
// flight-recorder traces) are retained in a fixed ring readable on the
// /debug/starlink/failures page.
func (c *Collector) OnSessionEnd(s SessionStats) {
	if s.Err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < collectorFailureRing {
		c.failures = append(c.failures, s)
		return
	}
	c.failures[c.failPos] = s
	c.failPos = (c.failPos + 1) % collectorFailureRing
}

// OnClassify implements Observer.
func (c *Collector) OnClassify(Classification) {}

// OnDeploy implements Observer.
func (c *Collector) OnDeploy(CaseEvent) {}

// OnUndeploy implements Observer.
func (c *Collector) OnUndeploy(CaseEvent) {}

// OnDrop implements Observer. Drops are read from the deployments'
// counters at scrape time.
func (c *Collector) OnDrop(d Drop) {}

// deployments copies the registry under the lock, in name order.
func (c *Collector) deployments() ([]string, []Deployment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deps := make([]Deployment, len(c.names))
	for i, n := range c.names {
		deps[i] = c.deps[n]
	}
	return append([]string(nil), c.names...), deps
}

// recentFailures copies the failure ring, oldest first.
func (c *Collector) recentFailures() []SessionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(append([]SessionStats(nil), c.failures[c.failPos:]...), c.failures[:c.failPos]...)
}

// Handler returns the collector's HTTP surface: the Prometheus text
// exposition on /metrics and plain text debug pages on
// /debug/starlink/ (index), /debug/starlink/sessions (live sessions
// with their traces) and /debug/starlink/failures (recent failed
// sessions from the observer ring).
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", c.serveMetrics)
	mux.HandleFunc("/debug/starlink/", c.serveIndex)
	mux.HandleFunc("/debug/starlink/sessions", c.serveSessions)
	mux.HandleFunc("/debug/starlink/failures", c.serveFailures)
	return mux
}

func (c *Collector) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	names, deps := c.deployments()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := promtext.NewWriter(w)

	type depMetrics struct {
		name string
		m    Metrics
	}
	snaps := make([]depMetrics, len(names))
	var overloaded, draining, closed, stale int
	for i, name := range names {
		m := deps[i].Metrics()
		snaps[i] = depMetrics{name: name, m: m}
		overloaded += m.Sessions.Rejected + m.Sessions.Dropped
		draining += m.Sessions.DrainRejected
		closed += m.Dispatch.Rejected
		stale += m.Sessions.Stale
	}

	pw.Family("starlink_drops_total",
		"Refused work by reason, summed over the deployments: overloaded (max-sessions rejections and shed payloads), draining (initiators refused mid-drain), closed (payloads a closed case refused) and stale (replies that answered no current lend of their requester socket).", "counter")
	for _, rv := range []struct {
		reason string
		v      int
	}{{"overloaded", overloaded}, {"draining", draining}, {"closed", closed}, {"stale", stale}} {
		pw.Sample("starlink_drops_total",
			[]promtext.Label{{Name: "reason", Value: rv.reason}}, float64(rv.v))
	}

	pw.Family("starlink_deployment_state",
		"Deployment lifecycle state (1 = current state).", "gauge")
	for _, s := range snaps {
		pw.Sample("starlink_deployment_state", []promtext.Label{
			{Name: "deployment", Value: s.name},
			{Name: "state", Value: s.m.State.String()},
		}, 1)
	}

	pw.Family("starlink_sessions_live", "Currently executing sessions.", "gauge")
	for _, s := range snaps {
		for _, cs := range sortedKeys(s.m.Cases) {
			pw.Sample("starlink_sessions_live", []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "case", Value: cs},
			}, float64(s.m.Cases[cs].Live))
		}
	}

	pw.Family("starlink_sessions_total", "Finished session admissions by result.", "counter")
	pw.Family("starlink_payloads_total", "Discarded payloads by result.", "counter")
	for _, s := range snaps {
		for _, cs := range sortedKeys(s.m.Cases) {
			sm := s.m.Cases[cs]
			base := []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "case", Value: cs},
			}
			for _, rv := range []struct {
				result string
				v      int
			}{
				{"completed", sm.Completed},
				{"failed", sm.Failed},
				{"rejected", sm.Rejected},
				{"drain_rejected", sm.DrainRejected},
			} {
				pw.Sample("starlink_sessions_total",
					append(append([]promtext.Label(nil), base...),
						promtext.Label{Name: "result", Value: rv.result}), float64(rv.v))
			}
			for _, rv := range []struct {
				result string
				v      int
			}{
				{"dropped", sm.Dropped},
				{"parse_errors", sm.ParseErrors},
				{"ignored", sm.Ignored},
			} {
				pw.Sample("starlink_payloads_total",
					append(append([]promtext.Label(nil), base...),
						promtext.Label{Name: "result", Value: rv.result}), float64(rv.v))
			}
		}
	}

	pw.Family("starlink_dispatch_total",
		"Entry-listener classification outcomes (bridges and dispatchers).", "counter")
	for _, s := range snaps {
		d := s.m.Dispatch
		for _, rv := range []struct {
			result string
			v      int
		}{
			{"dispatched", d.Dispatched},
			{"ambiguous", d.Ambiguous},
			{"unroutable", d.Unroutable},
			{"parse_errors", d.ParseErrors},
			{"suppressed", d.Suppressed},
			{"rejected", d.Rejected},
		} {
			pw.Sample("starlink_dispatch_total", []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "result", Value: rv.result},
			}, float64(rv.v))
		}
	}

	pw.Family("starlink_stage_latency_seconds",
		"Per-stage pipeline latency (the 'session' stage is the whole-session duration).",
		"histogram")
	for _, s := range snaps {
		for _, cs := range sortedKeys(s.m.CaseLatency) {
			for _, row := range s.m.CaseLatency[cs] {
				pw.HistogramSample("starlink_stage_latency_seconds", []promtext.Label{
					{Name: "deployment", Value: s.name},
					{Name: "case", Value: cs},
					{Name: "stage", Value: row.Stage},
				}, promBuckets(row.Buckets), row.Sum.Seconds(), row.Count)
			}
		}
	}

	pw.Family("starlink_lane_depth",
		"Payloads queued in each ingest lane (capacity via WithLanePolicy).", "gauge")
	for _, s := range snaps {
		for _, row := range s.m.Lanes {
			pw.Sample("starlink_lane_depth", []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "lane", Value: row.Lane},
			}, float64(row.Depth))
		}
	}

	pw.Family("starlink_lane_shed_total",
		"Payloads shed by the lane watermark policy (each an ErrOverloaded drop).", "counter")
	for _, s := range snaps {
		for _, row := range s.m.Lanes {
			pw.Sample("starlink_lane_shed_total", []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "lane", Value: row.Lane},
			}, float64(row.Shed))
		}
	}

	pw.Family("starlink_lane_wait_seconds",
		"Ingest lane queue wait: listener arrival to ingest-worker pickup.", "histogram")
	for _, s := range snaps {
		for _, row := range s.m.Lanes {
			pw.HistogramSample("starlink_lane_wait_seconds", []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "lane", Value: row.Lane},
			}, promBuckets(row.Wait.Buckets), row.Wait.Sum.Seconds(), row.Wait.Count)
		}
	}

	pw.Family("starlink_classify_latency_seconds",
		"Classification decision latency of the entry listeners.", "histogram")
	for _, s := range snaps {
		row := s.m.Dispatch.FastPathLatency
		pw.HistogramSample("starlink_classify_latency_seconds",
			[]promtext.Label{{Name: "deployment", Value: s.name}},
			promBuckets(row.Buckets), row.Sum.Seconds(), row.Count)
	}

	pw.Family("starlink_ingested_total",
		"Payloads accepted off entry listeners, by receive path.", "counter")
	for _, s := range snaps {
		for _, cs := range sortedKeys(s.m.Cases) {
			sm := s.m.Cases[cs]
			base := []promtext.Label{
				{Name: "deployment", Value: s.name},
				{Name: "case", Value: cs},
			}
			pw.Sample("starlink_ingested_total",
				append(append([]promtext.Label(nil), base...),
					promtext.Label{Name: "path", Value: "total"}), float64(sm.Ingested))
			pw.Sample("starlink_ingested_total",
				append(append([]promtext.Label(nil), base...),
					promtext.Label{Name: "path", Value: "batched"}), float64(sm.IngestedBatched))
		}
	}

	pw.Family("starlink_requester_lends_total",
		"Sessions handed a requester socket kept open across sessions, by whether it was already open.", "counter")
	for _, s := range snaps {
		for _, cs := range sortedKeys(s.m.Cases) {
			sm := s.m.Cases[cs]
			for _, rv := range []struct {
				result string
				v      int
			}{{"reused", sm.RequesterLends - sm.RequesterOpens}, {"opened", sm.RequesterOpens}} {
				pw.Sample("starlink_requester_lends_total", []promtext.Label{
					{Name: "deployment", Value: s.name}, {Name: "case", Value: cs}, {Name: "result", Value: rv.result},
				}, float64(rv.v))
			}
		}
	}

	// Transport syscall accounting is process-global (every deployment
	// shares the transport layer), so the families carry no deployment
	// label and are read once, straight from netapi.
	t := TransportMetrics(netapi.ReadIOStats())
	pw.Family("starlink_udp_recv_batches_total",
		"Batched receive syscalls (recvmmsg) that returned datagrams.", "counter")
	pw.Sample("starlink_udp_recv_batches_total", nil, float64(t.RecvBatches))
	pw.Family("starlink_udp_recv_batch_packets_total",
		"Datagrams returned by batched receive syscalls; divide by starlink_udp_recv_batches_total for the mean batch size.", "counter")
	pw.Sample("starlink_udp_recv_batch_packets_total", nil, float64(t.RecvBatchPackets))
	pw.Family("starlink_udp_recv_multi_batches_total",
		"Batched receives that carried more than one datagram.", "counter")
	pw.Sample("starlink_udp_recv_multi_batches_total", nil, float64(t.RecvMultiBatches))
	pw.Family("starlink_udp_recv_singles_total",
		"Per-datagram receive syscalls (portable path).", "counter")
	pw.Sample("starlink_udp_recv_singles_total", nil, float64(t.RecvSingles))
	pw.Family("starlink_udp_send_batches_total",
		"Batched send syscalls (sendmmsg, multicast fan-out).", "counter")
	pw.Sample("starlink_udp_send_batches_total", nil, float64(t.SendBatches))
	pw.Family("starlink_udp_send_batch_packets_total",
		"Datagrams carried by batched send syscalls.", "counter")
	pw.Sample("starlink_udp_send_batch_packets_total", nil, float64(t.SendBatchPackets))
	pw.Family("starlink_udp_send_singles_total",
		"Per-datagram send syscalls (unicast and portable fan-out).", "counter")
	pw.Sample("starlink_udp_send_singles_total", nil, float64(t.SendSingles))
	pw.Family("starlink_stream_flushes_total",
		"Coalesced stream-writer flushes (one vectored write each).", "counter")
	pw.Sample("starlink_stream_flushes_total", nil, float64(t.StreamFlushes))
	pw.Family("starlink_stream_flush_chunks_total",
		"Queued chunks drained by coalesced stream flushes.", "counter")
	pw.Sample("starlink_stream_flush_chunks_total", nil, float64(t.StreamFlushChunks))
}

func promBuckets(bs []LatencyBucket) []promtext.Bucket {
	out := make([]promtext.Bucket, len(bs))
	for i, b := range bs {
		out[i] = promtext.Bucket{Le: b.UpperBound.Seconds(), Count: b.Count}
	}
	return out
}

// sortedKeys lists a per-case map's keys in name order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (c *Collector) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/starlink/" && r.URL.Path != "/debug/starlink" {
		http.NotFound(w, r)
		return
	}
	names, deps := c.deployments()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "starlink debug surface\n\n")
	fmt.Fprintf(w, "recent failures retained: %d (see /debug/starlink/failures)\n", len(c.recentFailures()))
	fmt.Fprintf(w, "live sessions: see /debug/starlink/sessions\n\n")
	for i, name := range names {
		m := deps[i].Metrics()
		fmt.Fprintf(w, "deployment %q: state=%s live=%d completed=%d failed=%d rejected=%d\n",
			name, m.State, m.Sessions.Live, m.Sessions.Completed, m.Sessions.Failed, m.Sessions.Rejected)
		for _, cs := range sortedKeys(m.Cases) {
			sm := m.Cases[cs]
			fmt.Fprintf(w, "  case %-20s live=%d completed=%d failed=%d dropped=%d parse_errors=%d stale=%d requesters: idle=%d lends=%d opens=%d\n",
				cs, sm.Live, sm.Completed, sm.Failed, sm.Dropped, sm.ParseErrors, sm.Stale, sm.RequestersIdle, sm.RequesterLends, sm.RequesterOpens)
		}
		for _, row := range m.Latency {
			fmt.Fprintf(w, "  stage %-12s n=%-6d p50=%-12s p90=%-12s p99=%s\n",
				row.Stage, row.Count, row.P50, row.P90, row.P99)
		}
	}
}

func (c *Collector) serveSessions(w http.ResponseWriter, _ *http.Request) {
	names, deps := c.deployments()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	now := time.Now()
	total := 0
	for i, name := range names {
		for _, s := range deps[i].Sessions() {
			total++
			fmt.Fprintf(w, "deployment=%s case=%s key=%s origin=%s age=%s\n",
				name, s.Case, s.Key, s.Origin, now.Sub(s.Start).Round(time.Microsecond))
			if len(s.Trace) > 0 {
				fmt.Fprintf(w, "  trace: %s\n", FormatTrace(s.Trace))
			}
		}
	}
	fmt.Fprintf(w, "\n%d live session(s)\n", total)
}

func (c *Collector) serveFailures(w http.ResponseWriter, _ *http.Request) {
	failures := c.recentFailures()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range failures {
		fmt.Fprintf(w, "case=%s origin=%s start=%s duration=%s err=%v\n",
			s.Case, s.Origin, s.Start.Format(time.RFC3339Nano), s.Duration, s.Err)
		if len(s.Trace) > 0 {
			fmt.Fprintf(w, "  trace: %s\n", FormatTrace(s.Trace))
		}
	}
	fmt.Fprintf(w, "\n%d recent failure(s)\n", len(failures))
}
