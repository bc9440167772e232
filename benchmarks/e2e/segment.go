package main

import (
	"errors"
	"fmt"
	"slices"
	"syscall"
	"time"

	"starlink"
)

// warmupOps fills pools, dial-reuse and lazy set-up before timing.
const warmupOps = 300

// setupProbes host probes are taken before a set-up and as many after it.
const setupProbes = 5

// portPatience is how long a set-up waits for a fixed port that is taken.
const portPatience = 20 * time.Second

// segment is one independent measurement: fresh world, warm-up, one
// timed window, drain.
type segment struct {
	setup time.Duration // world construction up to the first verified reply
	// setupHost is the median of the host probes taken just before and
	// just after the set-up.
	setupHost time.Duration

	attempted     int // every op sent in the window, off-path included
	expecting     int // the ones that expect a reply
	everExpecting int // the same since the segment began, warm-up included
	tally             // what became of them
	// warmup is what became of the warm-up ops: they are not measured,
	// but one that fails counts against the run like any other.
	warmup tally
	// firstOps is what became of the ops up to the first verified reply.
	// They are set-up: one sent before the services had joined their
	// groups is not a failure, but it excuses the session it opened.
	firstOps tally

	lat       []int64    // per verified interaction, ns, sorted
	intervals []interval // the window, cut by intervalLen, as measured
	use       usage      // allocated over the window, whole process
	heap      uint64     // bytes in use after a forced collection, world still up
	before    starlink.Metrics
	after     starlink.Metrics
	leaks     leaks
	// spurious counts, per case, the sessions the client never asked
	// for over the segment's whole life: started minus ops sent.
	spurious map[string]int
	trace    *segmentTrace // nil unless traced
}

// excused is how many failed sessions the segment may show: a spurious
// upnp-to-bonjour session waits for a description GET nobody sends and
// can only time out, and an op the client gave up on leaves its session
// to do the same.
func (s *segment) excused() int {
	return max(0, s.spurious["upnp-to-bonjour"]) + s.failed() + s.firstOps.failed()
}

// lost is the engine's lost work that nothing above excuses; see
// leaks.lost.
func (s *segment) lost() int { return s.leaks.lost(s.excused()) }

// lostProblem says what lost counted.
func (s *segment) lostProblem() string {
	l := s.leaks
	return fmt.Sprintf("engine.failed = %d (%d excused: spurious sessions and ops the client gave up on), engine.dropped = %d, engine.ignored = %d after drain",
		l.Failed, s.excused(), l.Dropped, l.Ignored)
}

// countSpurious fills s.spurious from the deployment's per-case session
// counts and the ops the generator has sent since the segment began.
func (s *segment) countSpurious(w *workload, after starlink.Metrics, ever [numOpKinds]int) {
	s.spurious = map[string]int{}
	for name, cm := range after.Cases {
		if kind, ok := caseOps[name]; ok && len(w.cases) > 1 {
			s.spurious[name] = cm.Live + cm.Completed + cm.Failed - ever[kind]
		}
	}
}

// scaledP50 is the segment's latency_p50_us: the median of its
// intervals' host-scaled p50.
func scaledP50(s *segment) float64 {
	return medianOf(s.intervals, func(iv interval) float64 { return iv.scaled().p50 })
}

// scaledSetup is the set-up time a host whose probe takes probeRef would
// have shown.
func (s *segment) scaledSetup() time.Duration {
	return time.Duration(float64(s.setup) * float64(probeRef) / float64(s.setupHost))
}

func (s *segment) failed() int { return s.tally.failed() + s.warmup.failed() }

func (s *segment) problem() string {
	if s.warmup.failed() > 0 {
		return "warm-up: " + s.warmup.problem()
	}
	return s.tally.problem()
}

// caseOps is the op kind that opens a session of each dispatched case;
// slp-to-upnp never wins the ambiguous SLP lookup and gets none.
var caseOps = map[string]opKind{
	"slp-to-bonjour": opSLP, "slp-to-upnp-alt": opSLPAlt, "upnp-to-bonjour": opSSDP, "bonjour-to-upnp": opMDNS,
}

// runSegment measures w for one window; a zero window stops after
// set-up.
func runSegment(w *workload, seed int64, window time.Duration, traced bool, opts ...starlink.Option) (*segment, error) {
	seg := &segment{}
	probes, err := probeHostN(setupProbes)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	e, err := setup(w, traced, opts...)
	// Something else on the host can hold a fixed port for a moment (the
	// repository's own tests bind 8080 and 1427): wait for it rather than
	// fail the run, and time the set-up that succeeds.
	for waited := time.Duration(0); errors.Is(err, syscall.EADDRINUSE) && waited < portPatience; waited += portPatience / 100 {
		time.Sleep(portPatience / 100)
		t0 = time.Now()
		e, err = setup(w, traced, opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	torn := false
	defer func() {
		if !torn {
			e.abort()
		}
	}()
	g := newLoadgen(e, seed)
	c := e.client
	for tries := 0; c.verified == 0; tries++ {
		if tries == 20 {
			return nil, fmt.Errorf("%s: setup: no verified reply in %d ops (%s)", w.name, tries, c.lastError)
		}
		if err := g.run(1, 0); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
	}
	seg.setup = time.Since(t0)
	after, err := probeHostN(setupProbes)
	if err != nil {
		return nil, err
	}
	seg.setupHost = time.Duration(summarize(append(probes, after...)).med)
	seg.firstOps = c.reset()
	if window == 0 {
		e.settle()
		after := e.dep.Metrics()
		seg.countSpurious(w, after, g.ever)
		torn = true
		seg.leaks = e.teardown(after)
		return seg, nil
	}
	if err := g.run(warmupOps, 0); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}

	seg.warmup = c.reset()
	g.reset()
	if e.tap != nil {
		e.tap.reset()
	}
	seg.before = e.dep.Metrics()
	u0 := readUsage()
	err = g.run(0, window)
	u1 := readUsage()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	seg.use = usage{mallocs: u1.mallocs - u0.mallocs, bytes: u1.bytes - u0.bytes}

	e.settle()
	seg.heap = heapInUse()
	seg.after = e.dep.Metrics()
	seg.attempted, seg.expecting = countOps(g.sent)
	_, seg.everExpecting = countOps(g.ever)
	seg.countSpurious(w, seg.after, g.ever)
	c.mu.Lock()
	seg.tally = c.tally
	seg.intervals = cutIntervals(g.marks, g.probes, c.end, c.lat)
	seg.lat = slices.Sorted(slices.Values(c.lat))
	if traced {
		seg.trace = &segmentTrace{interactions: append([]interaction(nil), c.trace...), events: e.tap.snapshot()}
	}
	c.mu.Unlock()
	torn = true
	seg.leaks = e.teardown(seg.after)
	return seg, nil
}
