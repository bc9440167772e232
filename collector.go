package starlink

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	c.names = slices.DeleteFunc(c.names, func(n string) bool { return n == name })
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

// scope is where a family is read, and so which labels name its series
// before the family's own label.
type scope uint8

const (
	perProcess    scope = iota // once, unlabelled: the process-wide transport counters
	perSum                     // once, unlabelled: summed over the deployments
	perDeployment              // deployment="…"
	perCase                    // deployment, case="…" for each hosted case, in name order
	perStage                   // deployment, case, stage="…" for each of the case's latency rows
	perLane                    // deployment, lane="…" for each ingest lane, in priority order
)

// at is the point a family is read at: a deployment's snapshot and, in
// the case, stage and lane scopes, its row there.
type at struct {
	m   *Metrics
	c   SessionMetrics
	row *StageLatency
	l   *LaneMetrics
}

// reading is one series of a family at each point of its scope.
type reading struct {
	label   string          // the value of the family's label
	labelAt func(at) string // when set, reads the label's value at the point instead
	read    func(at) float64
}

// family declares one metric family. It is the only declaration of its
// series: /metrics writes every family from this table, the debug index
// prints the scalar ones, and a Metrics leaf that no reading reads fails
// TestEveryMetricIsASeries.
type family struct {
	name, kind string
	scope      scope
	label      string // tells the readings apart; "" when there is one
	help       string
	readings   []reading
	hist       func(at) *StageLatency // a histogram's one series at each point
}

// one is the reading of a family with one series per point.
func one(read func(at) float64) []reading { return []reading{{read: read}} }

var families = []family{
	{"starlink_drops_total", "counter", perSum, "reason", "Refused work by reason, summed over the deployments: overloaded (max-sessions rejections and shed payloads), draining (initiators refused mid-drain), closed (payloads a closed case refused) and stale (replies that answered no current lend of their requester socket).", []reading{
		{label: "overloaded", read: func(a at) float64 { return float64(a.m.Sessions.Rejected + a.m.Sessions.Dropped) }},
		{label: "draining", read: func(a at) float64 { return float64(a.m.Sessions.DrainRejected) }},
		{label: "closed", read: func(a at) float64 { return float64(a.m.Dispatch.Rejected) }},
		{label: "stale", read: func(a at) float64 { return float64(a.m.Sessions.Stale) }},
	}, nil},
	{"starlink_deployment_state", "gauge", perDeployment, "state", "Deployment lifecycle state (1 = current state).", []reading{
		{labelAt: func(a at) string { return a.m.State.String() }, read: func(at) float64 { return 1 }},
	}, nil},
	{"starlink_sessions_live", "gauge", perCase, "", "Currently executing sessions.", one(func(a at) float64 { return float64(a.c.Live) }), nil},
	{"starlink_sessions_total", "counter", perCase, "result", "Finished session admissions by result.", []reading{
		{label: "completed", read: func(a at) float64 { return float64(a.c.Completed) }},
		{label: "failed", read: func(a at) float64 { return float64(a.c.Failed) }},
		{label: "rejected", read: func(a at) float64 { return float64(a.c.Rejected) }},
		{label: "drain_rejected", read: func(a at) float64 { return float64(a.c.DrainRejected) }},
	}, nil},
	{"starlink_payloads_total", "counter", perCase, "result", "Discarded payloads by result.", []reading{
		{label: "dropped", read: func(a at) float64 { return float64(a.c.Dropped) }},
		{label: "parse_errors", read: func(a at) float64 { return float64(a.c.ParseErrors) }},
		{label: "ignored", read: func(a at) float64 { return float64(a.c.Ignored) }},
		{label: "stale", read: func(a at) float64 { return float64(a.c.Stale) }},
	}, nil},
	{"starlink_dispatch_total", "counter", perDeployment, "result", "Entry-listener classification outcomes (bridges and dispatchers).", []reading{
		{label: "dispatched", read: func(a at) float64 { return float64(a.m.Dispatch.Dispatched) }},
		{label: "ambiguous", read: func(a at) float64 { return float64(a.m.Dispatch.Ambiguous) }},
		{label: "unroutable", read: func(a at) float64 { return float64(a.m.Dispatch.Unroutable) }},
		{label: "parse_errors", read: func(a at) float64 { return float64(a.m.Dispatch.ParseErrors) }},
		{label: "suppressed", read: func(a at) float64 { return float64(a.m.Dispatch.Suppressed) }},
		{label: "rejected", read: func(a at) float64 { return float64(a.m.Dispatch.Rejected) }},
	}, nil},
	{"starlink_stage_latency_seconds", "histogram", perStage, "", "Per-stage pipeline latency (the 'session' stage is the whole-session duration).", nil,
		func(a at) *StageLatency { return a.row }},
	{"starlink_lane_depth", "gauge", perLane, "", "Payloads queued in each ingest lane; under pressure telemetry sheds oldest-first.", one(func(a at) float64 { return float64(a.l.Depth) }), nil},
	{"starlink_lane_capacity", "gauge", perLane, "", "Each ingest lane's ring bound, summed across ingest workers.", one(func(a at) float64 { return float64(a.l.Capacity) }), nil},
	{"starlink_lane_admitted_total", "counter", perLane, "", "Payloads admitted into each ingest lane.", one(func(a at) float64 { return float64(a.l.Admitted) }), nil},
	{"starlink_lane_deferred_total", "counter", perLane, "", "Admissions made while the lane was pressured (the transport gate holding read loops paused).", one(func(a at) float64 { return float64(a.l.Deferred) }), nil},
	{"starlink_lane_shed_total", "counter", perLane, "", "Payloads shed by the lane watermark policy (each an ErrOverloaded drop).", one(func(a at) float64 { return float64(a.l.Shed) }), nil},
	{"starlink_lane_wait_seconds", "histogram", perLane, "", "Ingest lane queue wait: listener arrival to ingest-worker pickup.", nil,
		func(a at) *StageLatency { return &a.l.Wait }},
	{"starlink_classify_latency_seconds", "histogram", perDeployment, "", "Classification decision latency of the entry listeners.", nil,
		func(a at) *StageLatency { return &a.m.Dispatch.FastPathLatency }},
	{"starlink_ingested_total", "counter", perCase, "path", "Payloads accepted off entry listeners, by receive path.", []reading{
		{label: "total", read: func(a at) float64 { return float64(a.c.Ingested) }},
		{label: "batched", read: func(a at) float64 { return float64(a.c.IngestedBatched) }},
	}, nil},
	{"starlink_requester_lends_total", "counter", perCase, "result", "Sessions handed a requester socket kept open across sessions, by whether it was already open.", []reading{
		{label: "reused", read: func(a at) float64 { return float64(a.c.RequesterLends - a.c.RequesterOpens) }},
		{label: "opened", read: func(a at) float64 { return float64(a.c.RequesterOpens) }},
	}, nil},
	{"starlink_requesters_idle", "gauge", perCase, "", "Requester sockets open with no borrower now (after Close: the number closed).", one(func(a at) float64 { return float64(a.c.RequestersIdle) }), nil},
	transport("starlink_udp_recv_batches_total", "Batched receive syscalls (recvmmsg) that returned datagrams.", func(t TransportMetrics) uint64 { return t.RecvBatches }),
	transport("starlink_udp_recv_batch_packets_total", "Datagrams returned by batched receive syscalls; divide by starlink_udp_recv_batches_total for the mean batch size.", func(t TransportMetrics) uint64 { return t.RecvBatchPackets }),
	transport("starlink_udp_recv_multi_batches_total", "Batched receives that carried more than one datagram.", func(t TransportMetrics) uint64 { return t.RecvMultiBatches }),
	transport("starlink_udp_recv_singles_total", "Per-datagram receive syscalls (portable path).", func(t TransportMetrics) uint64 { return t.RecvSingles }),
	transport("starlink_udp_send_batches_total", "Batched send syscalls (sendmmsg, multicast fan-out).", func(t TransportMetrics) uint64 { return t.SendBatches }),
	transport("starlink_udp_send_batch_packets_total", "Datagrams carried by batched send syscalls.", func(t TransportMetrics) uint64 { return t.SendBatchPackets }),
	transport("starlink_udp_send_singles_total", "Per-datagram send syscalls (unicast and portable fan-out).", func(t TransportMetrics) uint64 { return t.SendSingles }),
	transport("starlink_stream_flushes_total", "Stream writes, one per Send.", func(t TransportMetrics) uint64 { return t.StreamFlushes }),
}

// transport declares a transport counter. Transport syscall accounting
// is process-global (every deployment shares the transport layer), so
// it carries no deployment label.
func transport(name, help string, read func(TransportMetrics) uint64) family {
	return family{name, "counter", perProcess, "", help, one(func(a at) float64 { return float64(read(a.m.Transport)) }), nil}
}

// scrape is one read of every registered deployment; a page renders all
// its families from it.
type scrape struct {
	deps []deploymentSnapshot
	// process is the process-scope point: the first deployment's
	// snapshot, or with none registered the transport counters alone.
	process Metrics
	labels  []promtext.Label
	buckets []promtext.Bucket
}

type deploymentSnapshot struct {
	name  string
	m     Metrics
	cases []string // m.Cases' keys, in name order
}

func (c *Collector) scrape() *scrape {
	names, deps := c.deployments()
	s := &scrape{deps: make([]deploymentSnapshot, len(names)), labels: make([]promtext.Label, 0, 4)}
	for i, name := range names {
		m := deps[i].Metrics()
		s.deps[i] = deploymentSnapshot{name: name, m: m, cases: slices.Sorted(maps.Keys(m.Cases))}
	}
	if len(s.deps) > 0 {
		s.process = s.deps[0].m
	} else {
		s.process.Transport = TransportMetrics(netapi.ReadIOStats())
	}
	return s
}

// points calls fn at each point of scope sc in deployment d, with the
// labels that name it. fn may append to the labels; they are reused.
func (s *scrape) points(d *deploymentSnapshot, sc scope, fn func([]promtext.Label, at)) {
	ls := append(s.labels[:0], promtext.Label{Name: "deployment", Value: d.name})
	switch sc {
	case perDeployment:
		fn(ls, at{m: &d.m})
	case perCase, perStage:
		for _, cs := range d.cases {
			a, ls := at{m: &d.m, c: d.m.Cases[cs]}, append(ls, promtext.Label{Name: "case", Value: cs})
			if sc == perCase {
				fn(ls, a)
				continue
			}
			for i, row := range d.m.CaseLatency[cs] {
				a.row = &d.m.CaseLatency[cs][i]
				fn(append(ls, promtext.Label{Name: "stage", Value: row.Stage}), a)
			}
		}
	case perLane:
		for i, l := range d.m.Lanes {
			fn(append(ls, promtext.Label{Name: "lane", Value: l.Lane}), at{m: &d.m, l: &d.m.Lanes[i]})
		}
	}
}

// read reads r at a: its label's value and the series' value. A summed
// family reads the value at every deployment.
func (s *scrape) read(f *family, r *reading, a at) (string, float64) {
	label := r.label
	if r.labelAt != nil {
		label = r.labelAt(a)
	}
	if f.scope != perSum {
		return label, r.read(a)
	}
	var v float64
	for i := range s.deps {
		v += r.read(at{m: &s.deps[i].m})
	}
	return label, v
}

func (c *Collector) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	s := c.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := promtext.NewWriter(w)
	for i := range families {
		f := &families[i]
		pw.Family(f.name, f.help, f.kind)
		sample := func(labels []promtext.Label, a at) {
			if f.hist != nil {
				row := f.hist(a)
				s.buckets = s.buckets[:0]
				for _, b := range row.Buckets {
					s.buckets = append(s.buckets, promtext.Bucket{Le: b.UpperBound.Seconds(), Count: b.Count})
				}
				pw.HistogramSample(f.name, labels, s.buckets, row.Sum.Seconds(), row.Count)
				return
			}
			for j := range f.readings {
				label, v := s.read(f, &f.readings[j], a)
				if f.label != "" {
					pw.Sample(f.name, append(labels, promtext.Label{Name: f.label, Value: label}), v)
				} else {
					pw.Sample(f.name, labels, v)
				}
			}
		}
		if f.scope <= perSum {
			sample(nil, at{m: &s.process})
			continue
		}
		for j := range s.deps {
			s.points(&s.deps[j], f.scope, sample)
		}
	}
}

// serveIndex prints the scalar families one line per point — the
// process, then each deployment, its cases and its lanes — and each
// deployment's stage quantiles.
func (c *Collector) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/starlink/" && r.URL.Path != "/debug/starlink" {
		http.NotFound(w, r)
		return
	}
	s := c.scrape()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "starlink debug surface\n\nrecent failures retained: %d (see /debug/starlink/failures)\nlive sessions: see /debug/starlink/sessions\n\n",
		len(c.recentFailures()))
	s.indexLine(w, "process:", perProcess, perSum, at{m: &s.process})
	for i := range s.deps {
		d := &s.deps[i]
		for _, sc := range [...]scope{perDeployment, perCase, perLane} {
			s.points(d, sc, func(labels []promtext.Label, a at) {
				prefix := fmt.Sprintf("deployment %q:", d.name)
				if p := labels[len(labels)-1]; sc != perDeployment {
					prefix = "  " + p.Name + " " + p.Value + ":"
				}
				s.indexLine(w, prefix, sc, sc, a)
			})
		}
		for _, row := range d.m.Latency {
			fmt.Fprintf(w, "  stage %-12s n=%-6d p50=%-12s p90=%-12s p99=%s\n",
				row.Stage, row.Count, row.P50, row.P90, row.P99)
		}
	}
}

// indexLine prints, after prefix, the scalar families of the scopes from
// lo to hi read at a: "name value" or "name label=value …", separated by
// " | ".
func (s *scrape) indexLine(w io.Writer, prefix string, lo, hi scope, a at) {
	line, sep := []byte(prefix), " "
	for i := range families {
		f := &families[i]
		if f.hist != nil || f.scope < lo || f.scope > hi {
			continue
		}
		line, sep = append(append(line, sep...), strings.TrimPrefix(f.name, "starlink_")...), " | "
		for j := range f.readings {
			label, v := s.read(f, &f.readings[j], a)
			if line = append(line, ' '); label != "" {
				line = append(append(line, label...), '=')
			}
			line = strconv.AppendFloat(line, v, 'f', -1, 64)
		}
	}
	w.Write(append(line, '\n'))
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
