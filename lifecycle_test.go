package starlink_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"starlink"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/simnet"
)

// drainHarness deploys slp-to-bonjour (as a bridge or a dispatcher),
// opens one live session with a long convergence window, and returns
// the pieces the drain tests share.
type drainHarness struct {
	rt    *starlink.Runtime
	sim   *simnet.Net
	dep   starlink.Deployment
	drops *[]starlink.Drop
}

func newDrainHarness(t *testing.T, dispatcher bool) *drainHarness {
	t.Helper()
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	drops := &[]starlink.Drop{}
	obs := starlink.WithObserver(starlink.Hooks{
		Drop: func(d starlink.Drop) { *drops = append(*drops, d) },
	})
	var dep starlink.Deployment
	if dispatcher {
		d, err := fw.DeployDispatcher(context.Background(), "10.0.0.5", []string{"slp-to-bonjour"}, obs)
		if err != nil {
			t.Fatal(err)
		}
		dep = d
	} else {
		b, err := fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour", obs)
		if err != nil {
			t.Fatal(err)
		}
		dep = b
	}
	t.Cleanup(func() { _ = dep.Close() })

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	// One in-flight session: the client's convergence window keeps it
	// live until the virtual clock advances past it.
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(500*time.Millisecond))
	ua.Lookup("service:printer", func(slp.LookupResult) {})
	if err := rt.RunUntil(func() bool { return dep.Metrics().Sessions.Live == 1 }, time.Minute); err != nil {
		t.Fatalf("no live session: %v", err)
	}
	return &drainHarness{rt: rt, sim: sim, dep: dep, drops: drops}
}

// beginShutdown starts Shutdown on its own goroutine and waits (wall
// clock) for the deployment to reach Draining.
func (h *drainHarness) beginShutdown(t *testing.T, ctx context.Context) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- h.dep.Shutdown(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for h.dep.State() != starlink.StateDraining {
		if time.Now().After(deadline) {
			t.Fatalf("deployment never reached Draining (state %v)", h.dep.State())
		}
		time.Sleep(time.Millisecond)
	}
	return res
}

// testShutdownDrains is the graceful-drain contract, for both
// deployment kinds: a deployment with a live session, on Shutdown,
// accepts no new entries (late arrivals are refused with ErrDraining),
// completes the in-flight session, and then closes cleanly.
func testShutdownDrains(t *testing.T, dispatcher bool) {
	h := newDrainHarness(t, dispatcher)
	res := h.beginShutdown(t, context.Background())

	// A late arrival: a second client's initiator request lands while
	// the deployment is draining. It must be refused — and the refusal
	// must be observable, classified under ErrDraining.
	lateNode, _ := h.sim.NewNode("10.0.0.2")
	lateUA := slp.NewUserAgent(lateNode, slp.WithConvergenceWait(200*time.Millisecond))
	lateDone := false
	var lateURLs []string
	lateUA.Lookup("service:printer", func(r slp.LookupResult) { lateDone = true; lateURLs = r.URLs })
	if err := h.rt.RunUntil(func() bool { return len(*h.drops) > 0 }, time.Minute); err != nil {
		t.Fatalf("late arrival was not refused: %v", err)
	}
	drop := (*h.drops)[0]
	if !errors.Is(drop.Reason, starlink.ErrDraining) {
		t.Fatalf("drop reason %v is not ErrDraining", drop.Reason)
	}
	if drop.Case != "slp-to-bonjour" {
		t.Fatalf("drop = %+v", drop)
	}

	// The in-flight session completes once its convergence window
	// elapses — the drain waits for it rather than cutting it off.
	if err := h.rt.RunUntil(func() bool { return h.dep.Metrics().Sessions.Completed == 1 }, time.Minute); err != nil {
		t.Fatalf("in-flight session did not complete during drain: %v", err)
	}
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("Shutdown = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the last session drained")
	}
	if got := h.dep.State(); got != starlink.StateClosed {
		t.Fatalf("state = %v, want closed", got)
	}
	m := h.dep.Metrics()
	if m.Sessions.Completed != 1 || m.Sessions.Failed != 0 || m.Sessions.DrainRejected != 1 || m.Sessions.Live != 0 {
		t.Fatalf("metrics = %+v", m.Sessions)
	}
	// The refused client saw an empty window — exactly what an absent
	// service looks like to a legacy SLP client.
	h.sim.RunToQuiescence()
	if !lateDone || len(lateURLs) != 0 {
		t.Fatalf("late lookup: done=%v urls=%v", lateDone, lateURLs)
	}
}

func TestBridgeShutdownDrains(t *testing.T)     { testShutdownDrains(t, false) }
func TestDispatcherShutdownDrains(t *testing.T) { testShutdownDrains(t, true) }

// TestShutdownDeadlineForcesClose: when the drain context expires with
// sessions still live, Shutdown tears them down and reports the
// deadline.
func TestShutdownDeadlineForcesClose(t *testing.T) {
	h := newDrainHarness(t, false)
	// The virtual clock never advances past the session's convergence
	// window, so only the (wall-clock) deadline can end the drain.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res := h.beginShutdown(t, ctx)
	select {
	case err := <-res:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want context.DeadlineExceeded in the chain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after its deadline")
	}
	if got := h.dep.State(); got != starlink.StateClosed {
		t.Fatalf("state = %v, want closed", got)
	}
	// The cut-off session must not vanish from the metrics surface: it
	// is counted Failed (torn down before completion).
	m := h.dep.Metrics().Sessions
	if m.Live != 0 || m.Completed != 0 || m.Failed != 1 {
		t.Fatalf("metrics after forced close = %+v, want the live session counted Failed", m)
	}
	for _, d := range *h.drops {
		t.Logf("drop: %+v", d)
	}
}

// TestShutdownIdempotent: shutting down twice (and closing after
// shutdown) is safe and returns nil.
func TestShutdownIdempotent(t *testing.T) {
	fw, err := starlink.New(starlink.Simulated())
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.State(); got != starlink.StateClosed {
		t.Fatalf("state = %v", got)
	}
}

// TestDispatcherSyncWhileDraining: registry reconciliation is refused
// once the dispatcher drains.
func TestDispatcherSyncWhileDraining(t *testing.T) {
	h := newDrainHarness(t, true)
	res := h.beginShutdown(t, context.Background())
	d := h.dep.(*starlink.Dispatcher)
	if err := d.Sync(); !errors.Is(err, starlink.ErrDraining) {
		t.Fatalf("Sync during drain = %v, want ErrDraining", err)
	}
	if err := h.rt.RunUntil(func() bool { return h.dep.Metrics().Sessions.Completed == 1 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); !errors.Is(err, starlink.ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// moving (goroutines of earlier tests may still be unwinding).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 5; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// TestContextCancelClosesBridge verifies the lifetime half of the
// DeployBridge context contract — cancelling the deploy context tears
// the bridge down and releases its host — and what the contract costs:
// one watcher goroutine, with or without observers. Whatever tears a
// bridge down (Close, Shutdown, the context), its observers hear of the
// undeploy exactly once.
func TestContextCancelClosesBridge(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	deploy := func(ctx context.Context, hostIP string) (*starlink.Bridge, *atomic.Int32) {
		t.Helper()
		undeploys := new(atomic.Int32)
		b, err := fw.DeployBridge(ctx, hostIP, "slp-to-bonjour",
			starlink.WithIngestWorkers(2),
			starlink.WithObserver(starlink.Hooks{Undeploy: func(starlink.CaseEvent) { undeploys.Add(1) }}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		return b, undeploys
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g0 := settledGoroutines()
	plain, plainUndeploys := deploy(context.Background(), "10.0.0.5")
	g1 := settledGoroutines()
	watched, watchedUndeploys := deploy(ctx, "10.0.0.6")
	g2 := settledGoroutines()
	if base, withCtx := g1-g0, g2-g1; withCtx != base+1 {
		t.Errorf("a bridge costs %d goroutines, one with a cancellable context %d: want exactly one watcher more",
			base, withCtx)
	}

	cancel()
	for deadline := time.Now().Add(5 * time.Second); watchedUndeploys.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("bridge not torn down after context cancel (state %v)", watched.State())
		}
	}
	if got := watched.State(); got != starlink.StateClosed {
		t.Errorf("state = %v after context cancel", got)
	}
	// Cancellation releases the node too (the bridge owns it): by the
	// time the undeploy event is out, the IP is free again.
	node, err := sim.NewNode("10.0.0.6")
	if err != nil {
		t.Fatalf("node leaked after context cancel: %v", err)
	}
	_ = node.Close()
	_ = watched.Close() // closing what the context already closed notifies nobody

	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	_ = plain.Close()
	drained, drainedUndeploys := deploy(context.Background(), "10.0.0.7")
	if err := drained.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = drained.Close()
	for name, n := range map[string]*atomic.Int32{
		"context cancel": watchedUndeploys, "Close": plainUndeploys, "Shutdown": drainedUndeploys,
	} {
		if got := n.Load(); got != 1 {
			t.Errorf("%s: %d undeploy events, want exactly 1", name, got)
		}
	}
}
