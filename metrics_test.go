package starlink_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"starlink"
	"starlink/internal/composer"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/realnet"
	"starlink/internal/registry"
	"starlink/internal/simnet"
)

// composeSLPRequest builds a valid SLP SrvRequest wire form with the
// same MDL-driven composer the bridge uses.
func composeSLPRequest(t *testing.T, xid int) []byte {
	t.Helper()
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := reg.Spec("SLP")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := composer.New(spec, reg.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := message.New("SLP", "SLPSrvRequest")
	req.AddPrimitive("Version", "Integer", message.Int(2))
	req.AddPrimitive("FunctionID", "Integer", message.Int(1))
	req.AddPrimitive("XID", "Integer", message.Int(int64(xid)))
	req.AddPrimitive("LangTag", "String", message.Str("en"))
	req.AddPrimitive("SRVType", "String", message.Str("service:printer"))
	wire, err := comp.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// checkMetrics asserts the Metrics invariants that must hold at every
// instant, including mid-ingest and mid-drain: live counts never
// negative, per-case rows summing exactly to the aggregate, and the
// finished total (completed+failed+rejected+drain-rejected) never
// moving backwards between consecutive snapshots of the same
// observer. prevFinished is per-sampler: two goroutines can take
// snapshots in one order and compare them in the other, so cross-
// goroutine monotonicity is not a meaningful invariant.
func checkMetrics(t *testing.T, m starlink.Metrics, prevFinished *int64) {
	t.Helper()
	if m.Sessions.Live < 0 {
		t.Errorf("aggregate Live = %d, negative", m.Sessions.Live)
	}
	var sum starlink.SessionMetrics
	for cs, row := range m.Cases {
		if row.Live < 0 {
			t.Errorf("case %s Live = %d, negative", cs, row.Live)
		}
		sum.Live += row.Live
		sum.Completed += row.Completed
		sum.Failed += row.Failed
		sum.Rejected += row.Rejected
		sum.DrainRejected += row.DrainRejected
		sum.Dropped += row.Dropped
		sum.ParseErrors += row.ParseErrors
		sum.Ignored += row.Ignored
		sum.Ingested += row.Ingested
		sum.IngestedBatched += row.IngestedBatched
		sum.Stale += row.Stale
		sum.RequesterLends += row.RequesterLends
		sum.RequesterOpens += row.RequesterOpens
		sum.RequestersIdle += row.RequestersIdle
	}
	if sum != m.Sessions {
		t.Errorf("per-case rows sum to %+v, aggregate says %+v", sum, m.Sessions)
	}
	finished := int64(m.Sessions.Completed + m.Sessions.Failed + m.Sessions.Rejected + m.Sessions.DrainRejected)
	if finished < *prevFinished {
		t.Errorf("finished total went backwards: %d after %d", finished, *prevFinished)
	} else {
		*prevFinished = finished
	}
}

// TestMetricsConsistencyUnderLoad blasts concurrent SLP requests at a
// dispatcher over real sockets while sampler goroutines continuously
// read Metrics, then drains the dispatcher mid-traffic with a short
// deadline — the snapshots must satisfy the consistency invariants at
// every point, through ingest, teardown and after close. Run with
// -race in CI.
func TestMetricsConsistencyUnderLoad(t *testing.T) {
	rt := starlink.Loopback()
	net := rt.Backend().(*realnet.Runtime)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := fw.DeployDispatcher(context.Background(), "127.0.0.1",
		[]string{"slp-to-upnp", "slp-to-bonjour"},
		starlink.WithMaxSessions(32),
		starlink.WithReceiveTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Samplers: hammer the metrics surface while everything churns.
	// Each sampler tracks its own monotone-finished watermark.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevFinished int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				checkMetrics(t, disp.Metrics(), &prevFinished)
				disp.Sessions() // live-session listing must be safe too
			}
		}()
	}

	// Senders: each goroutine owns a node with several sockets, every
	// socket a distinct origin (so each send can open a session), all
	// multicasting valid SLP requests at the shared entry listener.
	wire := composeSLPRequest(t, 7)
	dst := netapi.Addr{IP: slp.Group, Port: slp.Port}
	for g := 0; g < 4; g++ {
		node, err := net.NewNode("blast-" + string(rune('a'+g)))
		if err != nil {
			t.Fatal(err)
		}
		var socks []netapi.UDPSocket
		for s := 0; s < 8; s++ {
			sock, err := node.OpenUDP(0, func(netapi.Packet) {})
			if err != nil {
				t.Fatal(err)
			}
			defer sock.Close()
			socks = append(socks, sock)
		}
		wg.Add(1)
		go func(socks []netapi.UDPSocket) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := socks[i%len(socks)].Send(dst, wire); err != nil {
					return // listener gone: the drain has released it
				}
				time.Sleep(time.Millisecond)
			}
		}(socks)
	}

	// Let traffic and samplers overlap, then drain mid-blast with a
	// deadline short enough to force teardown of live sessions.
	time.Sleep(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	err = disp.Shutdown(ctx)
	cancel()
	_ = err // deadline teardown is an acceptable outcome here
	close(stop)
	wg.Wait()

	// Post-close snapshots must remain consistent and stable.
	final := disp.Metrics()
	var watermark int64
	checkMetrics(t, final, &watermark)
	if final.Sessions.Live != 0 {
		t.Errorf("Live = %d after close, want 0", final.Sessions.Live)
	}
	finished := final.Sessions.Completed + final.Sessions.Failed + final.Sessions.Rejected + final.Sessions.DrainRejected
	if finished == 0 {
		t.Error("no sessions finished — the blast never opened a session?")
	}
	if again := disp.Metrics(); again.Sessions != final.Sessions {
		t.Errorf("closed-dispatcher metrics not stable: %+v then %+v", final.Sessions, again.Sessions)
	}
}

// TestSnapshotSurvivesClose pins what a closed deployment still answers:
// the counters, distributions and lane accounting of a closed bridge and
// of a closed dispatcher equal the last read taken while it was live and
// idle, and do not move between two reads.
func TestSnapshotSurvivesClose(t *testing.T) {
	for _, kind := range []string{"bridge", "dispatcher"} {
		t.Run(kind, func(t *testing.T) {
			rt := starlink.Simulated()
			sim := rt.Backend().(*simnet.Net)
			fw, err := starlink.New(rt)
			if err != nil {
				t.Fatal(err)
			}
			var dep starlink.Deployment
			if kind == "bridge" {
				dep, err = fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour")
			} else {
				dep, err = fw.DeployDispatcher(context.Background(), "10.0.0.5", []string{"slp-to-bonjour", "upnp-to-bonjour"})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			svcNode, _ := sim.NewNode("10.0.0.9")
			if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
				t.Fatal(err)
			}
			cliNode, _ := sim.NewNode("10.0.0.1")
			done := false
			slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond)).
				Lookup("service:printer", func(slp.LookupResult) { done = true })
			if err := sim.RunUntil(func() bool { return done }, time.Minute); err != nil {
				t.Fatal(err)
			}
			sim.RunToQuiescence()

			// State moves on and Transport is process-wide: everything else
			// must be identical.
			read := func() starlink.Metrics {
				m := dep.Metrics()
				m.State, m.Transport = 0, starlink.TransportMetrics{}
				return m
			}
			live := read()
			if live.Sessions.Completed != 1 || live.Lanes[0].Admitted == 0 || live.Latency[len(live.Latency)-1].Count != 1 {
				t.Fatalf("the live read is not worth comparing against: %+v", live.Sessions)
			}
			if err := dep.Close(); err != nil {
				t.Fatal(err)
			}
			if got := dep.State(); got != starlink.StateClosed {
				t.Fatalf("state = %v after Close", got)
			}
			closed, again := read(), read()
			if !reflect.DeepEqual(live, closed) {
				t.Errorf("closed read differs from the last live read:\n live:   %+v\n closed: %+v", live.Sessions, closed.Sessions)
			}
			if !reflect.DeepEqual(closed, again) {
				t.Error("two reads of a closed deployment differ")
			}
		})
	}
}
