// Command starlink-bench regenerates the paper's Fig. 12 tables: the
// native response times of the legacy discovery stacks (12(a)) and the
// Starlink translation times of the six bridge cases (12(b)), as
// min/median/max over -iters runs on the deterministic network
// simulator.
//
// It also measures the concurrent Automata Engine's parallel-session
// throughput (-table p): the same multi-client bridge workload driven
// sequentially and across GOMAXPROCS workers, with the speedup — and
// the realnet ingest saturation scenario (-table i): N UDP endpoints ×
// M senders over real loopback sockets with a classification-sized CPU
// cost per datagram, the workload that demonstrates per-endpoint
// parallel dispatch (PR 5) scaling with cores instead of with one
// dispatcher mutex.
//
// -table o runs the overload-protection scenario (PR 8): a mixed
// control/data/telemetry flood paced at -overload-factor times the
// consumer's calibrated service rate against the lane-prioritized
// bounded queue, reporting per-lane admission/shed counters, the
// watermark pause count, and control-lane latency against an
// uncontended baseline run.
//
// Usage:
//
//	starlink-bench [-table a|b|both|p|i|o] [-iters 100] [-seed 1]
//	               [-latency-hist]
//	               [-parallel-units 64] [-parallel-clients 16]
//	               [-ingest-endpoints 8] [-ingest-senders 32]
//	               [-ingest-packets 50000]
//	               [-overload-packets 4000] [-overload-senders 8]
//	               [-overload-factor 4]
//	               [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -latency-hist renders each measured row of tables 12(a)/12(b) as a
// log-linear latency distribution — the same internal/hist package the
// runtime pipeline uses for its staged histograms — with p50/p90/p99
// and the cumulative bucket ladder, so the offline Fig. 12 numbers and
// the live /metrics exposition read on one scale.
//
// The profile flags capture the run with runtime/pprof, so the Fig. 12
// reproduction can be inspected directly with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"starlink"
	"starlink/internal/bench"
	"starlink/internal/hist"
	"starlink/internal/lanes"
)

func main() {
	// All work happens in run so its defers (CPU profile flush, memory
	// profile write) execute on every path, including failures —
	// os.Exit would skip them and truncate the profiles.
	os.Exit(run())
}

func run() int {
	table := flag.String("table", "both", "which table to run: a, b, both, p (parallel throughput), i (ingest saturation) or o (overload protection)")
	iters := flag.Int("iters", 100, "iterations per row (the paper used 100)")
	latencyHist := flag.Bool("latency-hist", false, "render each table row as a latency histogram (p50/p90/p99 + bucket ladder)")
	seed := flag.Int64("seed", 1, "base RNG seed (results are deterministic per seed)")
	punits := flag.Int("parallel-units", 64, "simulations driven by -table p")
	pclients := flag.Int("parallel-clients", 16, "concurrent bridge sessions per simulation in -table p")
	iendpoints := flag.Int("ingest-endpoints", 8, "receiver UDP endpoints in -table i")
	isenders := flag.Int("ingest-senders", 32, "concurrent senders in -table i")
	ipackets := flag.Int("ingest-packets", 50000, "datagrams pushed through the ingress in -table i")
	imetricsOut := flag.String("metrics-out", "", "after a -table i run, write the Prometheus text exposition (including the transport batch counters) to this file")
	opackets := flag.Int("overload-packets", 4000, "datagrams in the -table o flood")
	osenders := flag.Int("overload-senders", 8, "sender nodes in -table o")
	ofactor := flag.Float64("overload-factor", 4, "arrival rate in -table o as a multiple of the consumer's service rate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "starlink-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "starlink-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "starlink-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "starlink-bench:", err)
			}
		}()
	}

	if *table == "p" {
		return runParallel(*punits, *pclients, *seed)
	}
	if *table == "i" {
		return runIngest(*iendpoints, *isenders, *ipackets, *imetricsOut)
	}
	if *table == "o" {
		return runOverload(*opackets, *osenders, *ofactor)
	}

	if *table == "a" || *table == "both" {
		natives, err := bench.RunTable12a(*iters, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "starlink-bench:", err)
			return 1
		}
		fmt.Println(bench.Table(
			fmt.Sprintf("Fig. 12(a) — Response time measures for legacy discovery protocols (ms, %d runs)", *iters),
			bench.NativeOrder, natives, bench.Fig12a))
		if *latencyHist {
			printLatencyHists("12(a)", bench.NativeOrder, natives)
		}
	}
	if *table == "b" || *table == "both" {
		bridges, err := bench.RunTable12b(*iters, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "starlink-bench:", err)
			return 1
		}
		fmt.Println(bench.Table(
			fmt.Sprintf("Fig. 12(b) — Translation times of Starlink connectors (ms, %d runs)", *iters),
			bench.CaseOrder, bridges, bench.Fig12b))
		if *latencyHist {
			printLatencyHists("12(b)", bench.CaseOrder, bridges)
		}
	}
	if *table != "a" && *table != "b" && *table != "both" {
		fmt.Fprintf(os.Stderr, "starlink-bench: unknown table %q (want a, b, both, p, i or o)\n", *table)
		return 2
	}
	return 0
}

// printLatencyHists renders the measured samples of each table row
// through the runtime's own log-linear histogram (internal/hist):
// quantiles first, then the cumulative count at every ladder bound
// that the distribution actually reaches. Bucketed quantiles carry the
// histogram's resolution error (≤6.25%), which is the point — these
// are the same numbers a Prometheus scrape of the live pipeline would
// yield for the identical workload.
func printLatencyHists(table string, order []string, measured map[string]*bench.Stats) {
	ladder := hist.Ladder()
	fmt.Printf("Fig. %s latency distributions (log-linear histogram, bucketed quantiles)\n", table)
	for _, name := range order {
		st, ok := measured[name]
		if !ok || st.N() == 0 {
			continue
		}
		var h hist.Histogram
		for _, d := range st.Samples {
			h.Record(d)
		}
		s := h.Snapshot()
		fmt.Printf("  %-18s n=%-4d p50=%-10s p90=%-10s p99=%s\n",
			name, s.Count, s.Quantile(0.50).Round(time.Microsecond),
			s.Quantile(0.90).Round(time.Microsecond),
			s.Quantile(0.99).Round(time.Microsecond))
		cum := s.Cumulative(ladder)
		for i, bound := range ladder {
			if cum[i] == 0 {
				continue // below the distribution: nothing to say yet
			}
			fmt.Printf("    le %-10s %6d\n", bound.Round(time.Microsecond), cum[i])
			if cum[i] == s.Count {
				break // the rest of the ladder repeats the total
			}
		}
	}
	fmt.Println()
}

// runIngest drives the realnet ingest-saturation scenario once and
// reports aggregate packet throughput plus the realised receive
// batching. With metricsOut set it then writes the full Prometheus
// exposition — whose transport counters cover this process's runs — so
// CI can promcheck that the batch series are live.
func runIngest(endpoints, senders, packets int, metricsOut string) int {
	fmt.Printf("Ingest saturation — %d endpoints × %d senders, %d datagrams (GOMAXPROCS=%d)\n",
		endpoints, senders, packets, runtime.GOMAXPROCS(0))
	res, err := bench.RunParallelIngest(endpoints, senders, packets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlink-bench:", err)
		return 1
	}
	fmt.Printf("  %d packets in %s  (%8.0f pkts/s, %.1f µs/packet)\n",
		res.Packets, res.Elapsed.Round(0), res.PacketsPerSec,
		float64(res.Elapsed.Microseconds())/float64(res.Packets))
	if res.RecvBatches > 0 {
		fmt.Printf("  recv batching: %d recvmmsg wakeups carried %d datagrams (mean batch %.2f, %d multi-packet)\n",
			res.RecvBatches, res.RecvBatchPackets, res.MeanRecvBatch, res.RecvMultiBatches)
	} else {
		fmt.Println("  recv batching: inactive (portable per-datagram path)")
	}
	if res.Retransmits > 0 {
		fmt.Printf("  retransmitted: %d datagrams (the host dropped a datagram or its ack)\n", res.Retransmits)
	}
	if metricsOut != "" {
		if err := writeMetricsExposition(metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "starlink-bench:", err)
			return 1
		}
	}
	return 0
}

// writeMetricsExposition captures one scrape of a fresh Collector's
// /metrics surface into a file. Deployment-level families are empty —
// nothing is registered — but the process-global transport families
// reflect every socket this benchmark process drove.
func writeMetricsExposition(path string) error {
	rec := httptest.NewRecorder()
	starlink.NewCollector().Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return os.WriteFile(path, rec.Body.Bytes(), 0o644)
}

// runOverload floods the lane-prioritized bounded ingest at `factor`
// times its calibrated service rate and prints the overload-protection
// evidence: per-lane admission/shed accounting, the bounded queue
// depth, watermark pauses, and control-lane latency against an
// uncontended (0.5x) baseline run of the same scenario.
func runOverload(packets, senders int, factor float64) int {
	fmt.Printf("Overload protection — %d datagrams × %d senders at %gx the service rate (GOMAXPROCS=%d)\n",
		packets, senders, factor, runtime.GOMAXPROCS(0))
	basePackets := packets / 4
	if basePackets < 1024 {
		basePackets = 1024
	}
	base, err := bench.RunOverload(basePackets, senders, 0.5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlink-bench:", err)
		return 1
	}
	res, err := bench.RunOverload(packets, senders, factor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlink-bench:", err)
		return 1
	}
	fmt.Printf("  service time %s/payload; offered %d, delivered %d, processed %d in %s\n",
		res.ServiceTime.Round(time.Microsecond), res.Packets, res.Received,
		res.Processed, res.Elapsed.Round(time.Millisecond))
	for lane, c := range res.Lanes {
		fmt.Printf("  lane %-9s admitted=%-6d deferred=%-5d shed=%-5d capacity=%d\n",
			lanes.Lane(lane).String(), c.Admitted, c.Deferred, c.Shed, c.Capacity)
	}
	fmt.Printf("  queue depth peak %d of %d (bounded); %d watermark pause(s)\n",
		res.MaxDepth, res.TotalCapacity, res.Pauses)
	fmt.Printf("  control latency p50 %s  p99 %s  (telemetry p99 %s)\n",
		res.ControlP50.Round(time.Microsecond), res.ControlP99.Round(time.Microsecond),
		res.TelemetryP99.Round(time.Microsecond))
	if base.ControlP99 > 0 {
		fmt.Printf("  uncontended control p99 %s — %.2fx under %gx overload\n",
			base.ControlP99.Round(time.Microsecond),
			float64(res.ControlP99)/float64(base.ControlP99), factor)
	}
	return 0
}

// runParallel compares sequential against parallel session throughput
// on the concurrent engine: the same units, first on one worker, then
// on GOMAXPROCS workers.
func runParallel(units, clients int, seed int64) int {
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("Parallel session throughput — %d simulations × %d concurrent bridge sessions\n", units, clients)
	seq, err := bench.RunParallelSessions(units, clients, 1, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlink-bench:", err)
		return 1
	}
	fmt.Printf("  sequential (1 worker):   %5d sessions in %8s  (%8.0f sessions/s)\n",
		seq.Sessions, seq.Elapsed.Round(0), seq.PerSecond)
	par, err := bench.RunParallelSessions(units, clients, workers, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlink-bench:", err)
		return 1
	}
	fmt.Printf("  parallel (%2d workers):   %5d sessions in %8s  (%8.0f sessions/s)\n",
		workers, par.Sessions, par.Elapsed.Round(0), par.PerSecond)
	if seq.PerSecond > 0 {
		fmt.Printf("  speedup: %.2fx (GOMAXPROCS=%d)\n", par.PerSecond/seq.PerSecond, workers)
	}
	return 0
}
