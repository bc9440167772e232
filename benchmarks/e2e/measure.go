package main

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of what the whole process — bridge,
// legacy services and load generator alike — has allocated so far.
type usage struct {
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A shared host runs in regimes: for seconds or minutes at a time the
// same system calls cost half as much again (on the capture host a
// single-threaded UDP ping-pong with no Go scheduling in it moved
// between 3 and 5 us per round trip, and a bridged interaction's median
// between 62 and 105 us, together). A run's median then describes the
// neighbours, and so does its best moment when the whole run was
// disturbed. So the generator interleaves a host probe with the load —
// probeRounds round trips between two loopback sockets of the standard
// library, nothing of this repository in the path — every probeEvery,
// every window is cut into intervals, and each interval's timings are
// scaled by probeRef over the interval's median probe: what the
// interval would have shown on a host where the probe takes probeRef.
// A run reports the median of its intervals' scaled values. On the
// capture host, runs of one commit whose raw medians differed by 40%
// then agreed within 2%.
//
// The probe prices the host's kernel path, which is most of what a
// bridged interaction spends. It must not move when the repository's
// code does, so that a change which saves system calls or CPU shows in
// full: the same round trips are first made untimed, because a cold
// kernel path costs twice a warm one (10 us right after another probe,
// 23 after 5 ms of arithmetic, 31 after 5 ms of sleep) and how cold it
// is would depend on what the workload had just been doing.
const (
	intervalLen = 100 * time.Millisecond
	// minIntervalOps keeps an interval that a stall emptied from
	// reporting a lucky p90.
	minIntervalOps = 30

	probeEvery  = 5 * time.Millisecond
	probeRounds = 2
	// probeRef is what the probe takes on the capture host when nothing
	// disturbs it. It only fixes the scale of the reported numbers.
	probeRef = 10 * time.Microsecond
)

// processStart anchors the monotonic offsets a window is cut by.
var processStart = time.Now()

// hostProbe is a pair of loopback UDP sockets of the standard library.
type hostProbe struct {
	a, b *net.UDPConn
	to   netip.AddrPort
	buf  [64]byte
}

// host is the process's probe, opened when first used and never closed.
var host *hostProbe

// probeHost makes one probe.
func probeHost() (timed, whole time.Duration, err error) {
	if host == nil {
		p, err := openHostProbe()
		if err != nil {
			return 0, 0, fmt.Errorf("host probe: %w", err)
		}
		host = p
	}
	timed, whole, err = host.once()
	if err != nil {
		return 0, 0, fmt.Errorf("host probe: %w", err)
	}
	return timed, whole, nil
}

// probeHostN times n probes, in ns.
func probeHostN(n int) ([]float64, error) {
	took := make([]float64, n)
	for i := range took {
		d, _, err := probeHost()
		if err != nil {
			return nil, err
		}
		took[i] = float64(d)
	}
	return took, nil
}

func openHostProbe() (*hostProbe, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return nil, err
	}
	b, err := net.ListenUDP("udp4", lo)
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	return &hostProbe{a: a, b: b, to: b.LocalAddr().(*net.UDPAddr).AddrPort()}, nil
}

// once times probeRounds round trips after as many untimed ones; whole
// is what both took.
func (p *hostProbe) once() (timed, whole time.Duration, err error) {
	t0 := time.Now()
	if err := p.roundTrips(); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	err = p.roundTrips()
	t2 := time.Now()
	return t2.Sub(t1), t2.Sub(t0), err
}

// roundTrips makes probeRounds round trips. Loopback delivers inside the
// send, so neither read waits; the AddrPort calls allocate nothing, so
// the probe stays out of the allocation counts.
func (p *hostProbe) roundTrips() error {
	for i := 0; i < probeRounds; i++ {
		if _, err := p.a.WriteToUDPAddrPort(p.buf[:40], p.to); err != nil {
			return err
		}
		_, from, err := p.b.ReadFromUDPAddrPort(p.buf[:])
		if err != nil {
			return err
		}
		if _, err := p.b.WriteToUDPAddrPort(p.buf[:40], from); err != nil {
			return err
		}
		if _, _, err := p.a.ReadFromUDPAddrPort(p.buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// probeSample is one host probe taken inside a window.
type probeSample struct {
	at    int64         // ns since processStart
	took  time.Duration // the timed round trips
	whole time.Duration // with the untimed ones
}

// mark is the generator's note at an interval boundary.
type mark struct {
	at  int64         // ns since processStart
	cpu time.Duration // cpuTime then
}

// interval is what one intervalLen of a window showed, the probes' own
// time taken out.
type interval struct {
	host float64 // median probe, us
	rate float64 // verified interactions per second
	p50  float64 // us
	p90  float64 // us
	cpu  float64 // process us per verified interaction
}

// scaled is the interval as a host whose probe takes probeRef would
// have shown it.
func (iv interval) scaled() interval {
	f := us(int64(probeRef)) / iv.host
	return interval{host: iv.host, rate: iv.rate / f, p50: iv.p50 * f, p90: iv.p90 * f, cpu: iv.cpu * f}
}

// cutIntervals sorts the interactions (completion time end[i], latency
// lat[i]) and the probes into the intervals between consecutive marks.
func cutIntervals(marks []mark, probes []probeSample, end, lat []int64) []interval {
	var out []interval
	order := make([]int, len(end))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return end[order[a]] < end[order[b]] })
	next, nextProbe := 0, 0
	for m := 0; m+1 < len(marks); m++ {
		from, to := marks[m], marks[m+1]
		var in []int64
		for ; next < len(order) && end[order[next]] < to.at; next++ {
			if end[order[next]] >= from.at {
				in = append(in, lat[order[next]])
			}
		}
		var took []float64
		var probing time.Duration
		for ; nextProbe < len(probes) && probes[nextProbe].at < to.at; nextProbe++ {
			if probes[nextProbe].at >= from.at {
				took = append(took, us(int64(probes[nextProbe].took)))
				probing += probes[nextProbe].whole
			}
		}
		if len(in) < minIntervalOps || len(took) == 0 {
			continue
		}
		sort.Slice(in, func(a, b int) bool { return in[a] < in[b] })
		n := float64(len(in))
		// A probe is system calls on the generator's thread: its wall
		// time is CPU time.
		out = append(out, interval{
			host: summarize(took).med,
			rate: n / (time.Duration(to.at-from.at) - probing).Seconds(),
			p50:  us(quantileNS(in, 0.50)),
			p90:  us(quantileNS(in, 0.90)),
			cpu:  us(int64(to.cpu-from.cpu-probing)) / n,
		})
	}
	return out
}

// medianOf is the median of f over the intervals.
func medianOf(ivs []interval, f func(interval) float64) float64 {
	vals := make([]float64, len(ivs))
	for i, iv := range ivs {
		vals[i] = f(iv)
	}
	return summarize(vals).med
}

// heapInUse is what the warm, idle world retains: heap spans in use once
// the window's garbage has been collected. The process's peak RSS also
// counts garbage awaiting collection, and on dispatch_mix that moved by a
// quarter between runs of one commit; it is reported, not bounded.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC() // the second collection empties the pools' victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// quantileNS returns the q-quantile of sorted ns samples; zero for an
// empty slice.
func quantileNS(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// spread summarises the per-segment values of one metric: the reported
// value is the median, min and max are printed beside it.
type spread struct{ med, min, max float64 }

func summarize(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return spread{med: med, min: s[0], max: s[len(s)-1]}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
