package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The smoke tests exercise the harness under `go test ./...` with every
// check on and no wall-clock assertion. dispatch_mix is left out: it
// binds TCP 8080 and UDP 1427, which the starlinkd and root-package
// tests bind too, and packages test in parallel.

// atRepoRoot runs the test from the repository root, where the driver
// runs: BENCHMARK.json is read and benchmarks/out/ written from there.
func atRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

func skipIfPortTaken(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, syscall.EADDRINUSE) {
		t.Skipf("fixed port taken on this host: %v", err)
	}
}

func TestSmokeSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock traffic")
	}
	for _, w := range []*workload{findWorkload("bridge_udp"), findWorkload("bridge_chain"), simControl} {
		t.Run(w.name, func(t *testing.T) {
			seg, err := runSegment(w, 1, 200*time.Millisecond, false)
			skipIfPortTaken(t, err)
			if err != nil {
				t.Fatal(err)
			}
			if seg.verified == 0 {
				t.Error("verified no interaction")
			}
			if seg.failed() != 0 {
				t.Error(seg.problem())
			}
			if seg.lost() != 0 {
				t.Error(seg.lostProblem())
			}
			if err := seg.leaks.err(); err != nil {
				t.Error(err)
			}
			if seg.verified != seg.expecting || len(seg.lat) != seg.verified {
				t.Errorf("verified %d of %d expecting, %d latencies", seg.verified, seg.expecting, len(seg.lat))
			}
		})
	}
}

// TestSmokeTracedRun runs the whole traced path once and pins its
// metric names, and the timed run's, to BENCHMARK.json.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives wall-clock traffic")
	}
	atRepoRoot(t)
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), " "); got != strings.Join(names, " ") {
		t.Errorf("workloads %q, BENCHMARK.json has %q", got, strings.Join(names, " "))
	}
	bounded := 0
	for _, tm := range timedMetrics {
		if tm.bounded {
			bounded++
		}
	}
	for _, m := range spec.EndToEnd {
		if tm := timedMetrics[m.Name]; !tm.bounded || tm.unit != m.Unit {
			t.Errorf("BENCHMARK.json end_to_end %s [%s]: the timed run reports unit %q, bounded %v", m.Name, m.Unit, tm.unit, tm.bounded)
		}
	}
	if len(spec.EndToEnd) != bounded {
		t.Errorf("BENCHMARK.json has %d end_to_end metrics, the timed run %d", len(spec.EndToEnd), bounded)
	}

	res, err := runTraced(findWorkload("bridge_udp"), 1, 200*time.Millisecond)
	skipIfPortTaken(t, err)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run: correct %v, %d failed", res.Correct, res.Failed)
	}
	want := map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	for name, m := range res.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			t.Errorf("traced run reports %s [%s]; BENCHMARK.json per_layer has unit %q (listed %v)", name, m.Unit, unit, ok)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("BENCHMARK.json per_layer %s is not reported by the traced run", name)
	}
	if res.Metrics["leg.samples"].Value == 0 {
		t.Error("no interaction could be split into legs")
	}
	if _, err := os.Stat(traceDir + "/trace-bridge_udp.json"); err != nil {
		t.Error(err)
	}
}

// TestLegsTileTheInteraction checks the span arithmetic on a synthetic
// trace: two visits to the service inside one interaction.
func TestLegsTileTheInteraction(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr := &segmentTrace{
		interactions: []interaction{{seq: 0, start: at(0), end: at(100)}, {seq: 1, start: at(200), end: at(260)}, {seq: 2, start: at(250), end: at(300)}},
		events: []tapEvent{
			{at: at(10)}, {at: at(15), send: true}, {at: at(40)}, {at: at(70), send: true},
			{at: at(210)}, {at: at(220), send: true},
		},
	}
	ls, skipped := splitLegs(tr)
	if skipped != 2 || len(ls) != 1 {
		t.Fatalf("%d interactions with legs, %d skipped; want 1 and 2 (the overlapping pair)", len(ls), skipped)
	}
	l := ls[0]
	if l.request != 10*time.Microsecond || l.peer != 35*time.Microsecond || l.mid != 25*time.Microsecond || l.reply != 30*time.Microsecond {
		t.Errorf("legs %+v", l)
	}
}

// TestMixKeepsItsShares checks the seeded block shuffle: exact shares
// and a different order per seed.
func TestMixKeepsItsShares(t *testing.T) {
	w := findWorkload("dispatch_mix")
	order := func(seed int64) string {
		g := &loadgen{e: &env{w: w, client: &client{}}, rng: rand.New(rand.NewSource(seed))}
		var sb strings.Builder
		count := map[opKind]int{}
		for i := 0; i < 10*len(w.mix); i++ {
			o := g.next()
			count[o.kind]++
			sb.WriteString(opKindNames[o.kind][:2])
		}
		var kinds []int
		for k := range count {
			kinds = append(kinds, int(k))
		}
		sort.Ints(kinds)
		for _, k := range kinds {
			share := 0
			for _, m := range w.mix {
				if int(m) == k {
					share++
				}
			}
			if count[opKind(k)] != 10*share {
				t.Errorf("seed %d: %d %s ops in 10 blocks, want %d", seed, count[opKind(k)], opKindNames[k], 10*share)
			}
		}
		return sb.String()
	}
	if order(1) == order(2) {
		t.Error("seeds 1 and 2 generate the same op order")
	}
	if order(3) != order(3) {
		t.Error("one seed generates two op orders")
	}
}
