// Command e2e is the repository benchmark: warm-deployment bridged
// interactions over real loopback sockets (and one simulator control),
// with a per-layer ledger. See benchmarks/README.md.
//
//	go run ./benchmarks/e2e -seed 7                      # every workload, timed then traced
//	go run ./benchmarks/e2e -seed 7 -workload bridge_udp # one timed run, result JSON on the last line
//	go run ./benchmarks/e2e -seed 7 -workload bridge_udp -trace 1
//	go run ./benchmarks/e2e -seed 7 -aa                  # A/A: everything twice, differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// segmentsPerRun independent segments, each a fresh world, make one run.
const segmentsPerRun = 10

// setupsPerSegment set-up-only cycles before each segment add to the
// segments' own set-up samples. Set-up is a few milliseconds, so five
// samples say little; taken all at once, the others would say what the
// host was doing in that half second.
const setupsPerSegment = 10

// timedMetrics is every value the timed run prints. The bounded ones are
// the end-to-end metrics of BENCHMARK.json, the timed run's result
// object. The p99 and the peak RSS are printed beside them but carry no
// bound: a tail shows every stall of a shared host (the p99 moved by a
// third between runs of one commit on the capture host), and peak RSS
// counts garbage awaiting collection. The traced run reports both per
// layer.
var timedMetrics = map[string]struct {
	unit    string
	bounded bool
}{
	"setup_s":                     {"s", true},
	"interactions_per_s":          {"1/s", true},
	"latency_p50_us":              {"us", true},
	"latency_p90_us":              {"us", true},
	"latency_p99_us":              {"us", false},
	"cpu_us_per_interaction":      {"us", true},
	"allocs_per_interaction":      {"count", true},
	"alloc_bytes_per_interaction": {"B", true},
	"heap_retained_mb":            {"MB", true},
	"peak_rss_mb":                 {"MB", false},
	"host_probe_us":               {"us", false},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, one child process each)")
		seed    = flag.Int64("seed", 1, "seed for ids, mix order and noise bytes")
		seconds = flag.Int("seconds", 30, "measured seconds per run, split over the segments")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics, span file) instead of the timed run")
		aa      = flag.Bool("aa", false, "run every workload twice, order alternated, and compare against the bounds")
	)
	flag.Parse()
	// One P on one CPU: see the note on the workloads.
	runtime.GOMAXPROCS(1)
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: not pinned to one CPU, timings will spread wider:", err)
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *aa:
		err = runAA(*seed, *seconds)
	case *name == "":
		_, err = runAll(*seed, *seconds, workloadNames(), true)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "e2e: unknown workload %q (have %v)\n", *name, workloadNames())
			os.Exit(2)
		}
		window := time.Duration(*seconds) * time.Second / segmentsPerRun
		var res result
		if *trace == 1 {
			res, err = runTraced(w, *seed, window)
		} else {
			res, err = runTimed(w, *seed, window)
		}
		if err == nil {
			err = emit(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// emit prints the result object as the last line of standard output;
// a failed check is reported and also fails the process.
func emit(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run failed its checks (%d of %d ops failed)", res.Failed, res.Attempted)
	}
	return nil
}

// printMetrics lists metrics by name, human-readable, before the JSON.
func printMetrics(title string, ms map[string]metric, notes map[string]string) {
	fmt.Println(title)
	for _, n := range sortedNames(ms) {
		fmt.Printf("  %-44s %14.4f %-6s %s\n", n, ms[n].Value, ms[n].Unit, notes[n])
	}
}

// runTimed is the timed run: segmentsPerRun untraced segments. The
// timings are medians over the host-scaled intervals of all the windows
// and over the host-scaled set-ups (see probeRef); the counts, which do
// not depend on the host's mood, are medians over the segments.
func runTimed(w *workload, seed int64, window time.Duration) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	per := map[string][]float64{}
	var intervals []interval
	var setups, rawSetups []float64 // host-scaled, and as measured
	var p99Samples int
	var problems, lost []string
	note := func(problem string) {
		res.Correct = false
		problems = append(problems, problem)
	}
	// check looks at what a segment left behind: a leak fails the run, and
	// work the engine lost counts as failed ops.
	check := func(where string, seg *segment) {
		if err := seg.leaks.err(); err != nil {
			note(where + ": " + err.Error())
		}
		if n := seg.lost(); n > 0 {
			res.Failed += n
			lost = append(lost, where+": "+seg.lostProblem())
		}
	}
	for i := 0; i < segmentsPerRun; i++ {
		for j := 0; j < setupsPerSegment; j++ {
			seg, err := runSegment(w, seed, 0, false)
			if err != nil {
				return res, err
			}
			check(fmt.Sprintf("set-up %d before segment %d", j, i), seg)
			setups = append(setups, seg.scaledSetup().Seconds())
			rawSetups = append(rawSetups, seg.setup.Seconds())
		}
		// Each segment gets its own stream of the seed, so a run is not
		// the same second measured five times.
		seg, err := runSegment(w, seed*segmentsPerRun+int64(i), window, false)
		if err != nil {
			return res, err
		}
		res.Attempted += warmupOps + seg.attempted
		res.Failed += seg.failed()
		if seg.failed() > 0 {
			lost = append(lost, fmt.Sprintf("segment %d: %s", i, seg.problem()))
		}
		check(fmt.Sprintf("segment %d", i), seg)
		if seg.verified == 0 {
			return res, fmt.Errorf("%s: segment %d verified no interaction (%s)", w.name, i, seg.lastError)
		}
		n := float64(seg.verified)
		p99Samples += len(seg.lat)
		intervals = append(intervals, seg.intervals...)
		setups = append(setups, seg.scaledSetup().Seconds())
		rawSetups = append(rawSetups, seg.setup.Seconds())
		per["latency_p99_us"] = append(per["latency_p99_us"], us(quantileNS(seg.lat, 0.99)))
		per["allocs_per_interaction"] = append(per["allocs_per_interaction"], float64(seg.use.mallocs)/n)
		per["alloc_bytes_per_interaction"] = append(per["alloc_bytes_per_interaction"], float64(seg.use.bytes)/n)
		per["heap_retained_mb"] = append(per["heap_retained_mb"], float64(seg.heap)/(1<<20))
	}
	if len(intervals) == 0 {
		return res, fmt.Errorf("%s: no %s of any window held %d verified interactions", w.name, intervalLen, minIntervalOps)
	}
	if len(lost) > 0 && ratio(float64(res.Failed), float64(res.Attempted)) > w.failedRatioCap() {
		for _, l := range lost {
			note(l)
		}
		lost = nil
	}
	shown := map[string]metric{}
	notes := map[string]string{}
	for name, vals := range per {
		s := summarize(vals)
		shown[name] = metric{Value: s.med, Unit: timedMetrics[name].unit}
		notes[name] = fmt.Sprintf("median of %d segments, min %.4f max %.4f", len(vals), s.min, s.max)
	}
	// The timings: the median of the host-scaled values (see probeRef).
	shown["setup_s"] = metric{Value: summarize(setups).med, Unit: timedMetrics["setup_s"].unit}
	notes["setup_s"] = fmt.Sprintf("median of %d host-scaled set-ups; as measured, median %.4f", len(setups), summarize(rawSetups).med)
	for name, of := range map[string]func(interval) float64{
		"interactions_per_s":     func(iv interval) float64 { return iv.rate },
		"latency_p50_us":         func(iv interval) float64 { return iv.p50 },
		"latency_p90_us":         func(iv interval) float64 { return iv.p90 },
		"cpu_us_per_interaction": func(iv interval) float64 { return iv.cpu },
	} {
		shown[name] = metric{Value: medianOf(intervals, func(iv interval) float64 { return of(iv.scaled()) }), Unit: timedMetrics[name].unit}
		notes[name] = fmt.Sprintf("median of %d host-scaled intervals of %s; as measured, median %.4f", len(intervals), intervalLen, medianOf(intervals, of))
	}
	shown["host_probe_us"] = metric{Value: medianOf(intervals, func(iv interval) float64 { return iv.host }), Unit: timedMetrics["host_probe_us"].unit}
	notes["host_probe_us"] = fmt.Sprintf("median of the intervals; every timing above is scaled by %.1f over its interval's", us(int64(probeRef)))
	notes["latency_p99_us"] += fmt.Sprintf(", %d samples", p99Samples)
	shown["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: timedMetrics["peak_rss_mb"].unit}
	notes["peak_rss_mb"] = "process high-water mark over the whole run"
	for name, m := range shown {
		if timedMetrics[name].bounded {
			res.Metrics[name] = m
		} else {
			notes[name] += "; reported, not bounded"
		}
	}
	printMetrics(fmt.Sprintf("%s seed %d: %d segments x %s, %d ops attempted, %d failed (failed_ratio %.6f)",
		w.name, seed, segmentsPerRun, window, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted))), shown, notes)
	for _, l := range lost {
		fmt.Printf("within the workload's failed_ratio cap of %g: %s\n", w.failedRatioCap(), l)
	}
	for _, p := range problems {
		fmt.Println("FAILED CHECK:", p)
	}
	return res, nil
}
