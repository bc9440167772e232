package main

import (
	"fmt"
	"time"
)

// runTraced is the traced run: one untraced reference segment, one
// traced segment, and the probes that price single layers. It reports
// every per-layer metric and writes the span file. End-to-end metrics
// are never taken from it.
func runTraced(w *workload, seed int64, window time.Duration) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	out := res.Metrics

	ref, err := runSegment(w, seed, window, false)
	if err != nil {
		return res, err
	}
	traced, err := runSegment(w, seed, window, true)
	if err != nil {
		return res, err
	}
	var problems []string
	for _, seg := range []*segment{ref, traced} {
		res.Attempted += warmupOps + seg.attempted
		res.Failed += seg.failed() + seg.lost()
		if err := seg.leaks.err(); err != nil {
			problems = append(problems, err.Error())
		}
		if ratio(float64(seg.failed()+seg.lost()), float64(warmupOps+seg.attempted)) > w.failedRatioCap() {
			problems = append(problems, seg.problem()+"; "+seg.lostProblem())
		}
	}

	// Rows read from Metrics() come from the untraced segment; the tap
	// only adds the legs.
	engineLedger(ref, out)
	out["host.probe_us"] = metric{medianOf(ref.intervals, func(iv interval) float64 { return iv.host }), "us"}
	out["latency.p50_us"] = metric{us(quantileNS(ref.lat, 0.50)), "us"}
	out["latency.p99_us"] = metric{us(quantileNS(ref.lat, 0.99)), "us"}
	out["latency.p999_us"] = metric{us(quantileNS(ref.lat, 0.999)), "us"}
	out["latency.traced_p50_us"] = metric{us(quantileNS(traced.lat, 0.50)), "us"}
	ls, skipped := splitLegs(traced.trace)
	legLedger(ls, out)
	out["trace.overhead_pct"] = metric{100 * ratio(scaledP50(traced)-scaledP50(ref), scaledP50(ref)), "%"}

	corpus, err := buildCorpus()
	if err != nil {
		return res, err
	}
	codecs, err := codecLedger(corpus, out)
	if err != nil {
		return res, err
	}
	if err := simLedger(seed, codecs["slp-to-bonjour"], out); err != nil {
		return res, err
	}
	if err := echoFloors(out); err != nil {
		return res, err
	}
	if err := requesterCost(corpus, out); err != nil {
		return res, err
	}
	lanesCost(out)
	if err := setupLedger(out); err != nil {
		return res, err
	}
	out["process.peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	spans, err := buildSpans(w, traced.trace, ls, corpus)
	if err != nil {
		return res, err
	}
	path, err := writeTrace(traceFile{
		Workload: w.name, Seed: seed,
		Note: "start_ns/end_ns count from the first interaction's send; replay spans are timed calls made after the run on the captured wire messages, so only their duration is meaningful",
		Counts: map[string]int{
			"interactions": len(traced.trace.interactions), "interactions_with_legs": len(ls), "interactions_skipped": skipped,
			"service_events": len(traced.trace.events), "attempted": traced.attempted, "verified": traced.verified, "failed": traced.failed(),
		},
		Metrics: out, Spans: spans,
	})
	if err != nil {
		return res, err
	}
	printMetrics(fmt.Sprintf("%s seed %d traced: per-layer ledger (%d interactions, %d with legs; spans in %s)",
		w.name, seed, len(traced.trace.interactions), len(ls), path), out, nil)
	for _, p := range problems {
		res.Correct = false
		fmt.Println("FAILED CHECK:", p)
	}
	return res, nil
}
