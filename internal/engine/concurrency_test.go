package engine_test

import (
	"fmt"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/simnet"
)

// A burst of clients from distinct hosts must be bridged as fully
// independent concurrent sessions in the sharded table (how keys spread
// over the shards is TestSessionTableSpreadsKeys).
// The bonjour-to-slp case holds every session open for the bridge's
// 6.25 s SLP convergence window, so all n sessions are live at once.
func TestBridgeManySessionsSharded(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "bonjour-to-slp")
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:x"); err != nil {
		t.Fatal(err)
	}
	const n = 24
	doneCount, okCount := 0, 0
	for i := 0; i < n; i++ {
		cliNode, _ := sim.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		b := dnssd.NewBrowser(cliNode, dnssd.WithBrowseWindow(8*time.Second))
		b.Browse("printer.local", func(r dnssd.BrowseResult) {
			doneCount++
			if len(r.URLs) == 1 {
				okCount++
			}
		})
	}
	// Let the sessions open, then check they are all live at once.
	sim.Run(time.Second)
	if st := e.Counts(); st.Live != n {
		t.Fatalf("live sessions mid-flight = %d, want %d", st.Live, n)
	}
	if err := sim.RunUntil(func() bool { return doneCount == n }, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if st := e.Counts(); okCount != n || st.Completed != n || st.Failed != 0 || st.Live != 0 {
		t.Fatalf("ok=%d, counters %+v", okCount, st.Counters)
	}
}

// Load beyond the max-sessions bound is rejected, not queued: with a
// bound of 1, concurrent initiator requests yield exactly one bridged
// session and the rest counted as rejected.
func TestBridgeMaxSessionsRejectsOverload(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour", engine.WithMaxSessions(1))
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:x"); err != nil {
		t.Fatal(err)
	}
	const n = 3
	doneCount := 0
	for i := 0; i < n; i++ {
		cliNode, _ := sim.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
		ua.Lookup("service:printer", func(slp.LookupResult) { doneCount++ })
	}
	if err := sim.RunUntil(func() bool { return doneCount == n }, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if e.Counts().Completed != 1 {
		t.Fatalf("completed = %d, want 1", e.Counts().Completed)
	}
	if e.Counts().Rejected != n-1 {
		t.Fatalf("rejected = %d, want %d", e.Counts().Rejected, n-1)
	}
}

// Convergence-window jitter must be reproducible: identical seeds give
// identical per-session timings even though each session draws from
// its own RNG.
func TestWindowJitterDeterministic(t *testing.T) {
	run := func() time.Duration {
		sim := simnet.New(simnet.WithSeed(7))
		var stats []engine.SessionStats
		e := deploy(t, sim, "upnp-to-slp",
			engine.WithWindowJitter(200*time.Millisecond, 42),
			onSessionEnd(func(s engine.SessionStats) { stats = append(stats, s) }))
		_ = e
		svcNode, _ := sim.NewNode("10.0.0.9")
		if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:printer://10.0.0.9:515"); err != nil {
			t.Fatal(err)
		}
		cliNode, _ := sim.NewNode("10.0.0.1")
		cp := upnp.NewControlPoint(cliNode, upnp.WithMX(8*time.Second))
		done := false
		cp.Discover("urn:printer", func(upnp.DiscoverResult) { done = true })
		if err := sim.RunUntil(func() bool { return done }, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		sim.RunToQuiescence()
		if len(stats) != 1 || stats[0].Err != nil {
			t.Fatalf("stats = %+v", stats)
		}
		return stats[0].Duration
	}
	first := run()
	for i := 0; i < 2; i++ {
		if d := run(); d != first {
			t.Fatalf("run %d: duration %v != %v — jitter not reproducible", i+2, d, first)
		}
	}
}

// Closing an engine with many sessions in flight must end every
// session and release every resource without deadlocking.
func TestBridgeCloseDrainsConcurrentSessions(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "bonjour-to-slp") // 6.25 s window: sessions stay live
	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := slp.NewServiceAgent(svcNode, "service:printer", "service:x"); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		cliNode, _ := sim.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		b := dnssd.NewBrowser(cliNode, dnssd.WithBrowseWindow(8*time.Second))
		b.Browse("printer.local", func(dnssd.BrowseResult) {})
	}
	sim.Run(time.Second)
	if st := e.Counts(); st.Live != n {
		t.Fatalf("live = %d, want %d", st.Live, n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Counts(); st.Live != 0 {
		t.Fatalf("live after close = %d", st.Live)
	}
	sim.RunToQuiescence() // client windows expire cleanly
}
