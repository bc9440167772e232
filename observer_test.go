package starlink_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/realnet"
)

// blast multicasts wire to dst from `sockets` distinct sockets of a fresh
// node — every socket a distinct origin, so each send can open a
// session — until stop is closed.
func blast(t *testing.T, net *realnet.Runtime, wg *sync.WaitGroup, stop <-chan struct{}, name string, sockets int, dst netapi.Addr, wire []byte) {
	t.Helper()
	node, err := net.NewNode(name)
	if err != nil {
		t.Fatal(err)
	}
	var socks []netapi.UDPSocket
	for s := 0; s < sockets; s++ {
		sock, err := node.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, sock)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, sock := range socks {
				_ = sock.Close()
			}
		}()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = socks[i%len(socks)].Send(dst, wire)
			time.Sleep(200 * time.Microsecond)
		}
	}()
}

// TestObserverSerialisedAcrossCases pins the Observer contract's
// "invocations are serialised per deployment" where it is hardest to
// keep: a dispatcher hosting two cases over real sockets, each case's
// engine reporting from its own workers and the dispatcher reporting
// classifications from its listeners, into one observer that counts
// without any synchronisation of its own. Run with -race.
func TestObserverSerialisedAcrossCases(t *testing.T) {
	rt := starlink.Loopback()
	net := rt.Backend().(*realnet.Runtime)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	var classified, started, ended, dropped int // guarded by nothing: that is the test
	byCase := map[string]int{}
	seen := func(n *int, caseName string) {
		*n++
		byCase[caseName]++
	}
	disp, err := fw.DeployDispatcher(context.Background(), "127.0.0.1",
		[]string{"slp-to-bonjour", "upnp-to-bonjour"},
		starlink.WithMaxSessions(2), // the blast overruns it: refusals report drops
		starlink.WithReceiveTimeout(20*time.Millisecond),
		starlink.WithObserver(starlink.Hooks{
			Classify:     func(e starlink.Classification) { seen(&classified, e.Case) },
			SessionStart: func(e starlink.SessionStart) { seen(&started, e.Case) },
			SessionEnd:   func(e starlink.SessionStats) { seen(&ended, e.Case) },
			Drop:         func(e starlink.Drop) { seen(&dropped, e.Case) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	blast(t, net, &wg, stop, "slp-blast", 8, netapi.Addr{IP: slp.Group, Port: slp.Port}, composeSLPRequest(t, 7))
	blast(t, net, &wg, stop, "ssdp-blast", 8, netapi.Addr{IP: ssdp.Group, Port: ssdp.Port}, ssdp.NewMSearch("urn:printer", 1).Marshal())
	both := func() bool {
		m := disp.Metrics()
		return m.Cases["slp-to-bonjour"].Rejected > 0 && m.Cases["upnp-to-bonjour"].Rejected > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !both(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("the blast never overran both cases: %+v", disp.Metrics().Cases)
		}
	}
	close(stop)
	wg.Wait()
	if err := disp.Close(); err != nil { // tears the live sessions down: more events
		t.Fatal(err)
	}
	// Close returned: every event source has stopped, the counts are final.
	if classified == 0 || started == 0 || ended != started || dropped == 0 {
		t.Errorf("classified=%d started=%d ended=%d dropped=%d, want all nonzero and every session ended",
			classified, started, ended, dropped)
	}
	if byCase["slp-to-bonjour"] == 0 || byCase["upnp-to-bonjour"] == 0 {
		t.Errorf("events by case = %v, want both cases reporting", byCase)
	}
}

// TestBridgeDeployEventPrecedesSessions: a deployment's deploy event is
// delivered before its entry listeners reach the case, so however fast a
// client fires once the port is bound — here it is already firing — and
// however slow the observer is, no session is admitted until OnDeploy has
// returned. A bridge and a dispatcher are deployed the same way, so the
// same holds for both.
func TestBridgeDeployEventPrecedesSessions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deploy func(*starlink.Framework, ...starlink.Option) (starlink.Deployment, error)
	}{
		{"DeployBridge", func(fw *starlink.Framework, opts ...starlink.Option) (starlink.Deployment, error) {
			return fw.DeployBridge(context.Background(), "127.0.0.1", "slp-to-bonjour", opts...)
		}},
		{"DeployDispatcher", func(fw *starlink.Framework, opts ...starlink.Option) (starlink.Deployment, error) {
			return fw.DeployDispatcher(context.Background(), "127.0.0.1", []string{"slp-to-bonjour"}, opts...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := starlink.Loopback()
			net := rt.Backend().(*realnet.Runtime)
			fw, err := starlink.New(rt)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer wg.Wait()
			defer close(stop)
			blast(t, net, &wg, stop, "early-bird", 4, netapi.Addr{IP: slp.Group, Port: slp.Port}, composeSLPRequest(t, 7))

			// Callbacks are serialised, so these need no lock among themselves;
			// mu orders them against the test goroutine.
			var mu sync.Mutex
			var deployed time.Time // when OnDeploy returned
			deploys, sessions, early := 0, 0, 0
			dep, err := tc.deploy(fw,
				starlink.WithReceiveTimeout(20*time.Millisecond),
				starlink.WithObserver(starlink.Hooks{
					Deploy: func(starlink.CaseEvent) {
						time.Sleep(30 * time.Millisecond) // a slow observer widens the window
						mu.Lock()
						deploys++
						deployed = time.Now()
						mu.Unlock()
					},
					SessionStart: func(e starlink.SessionStart) {
						mu.Lock()
						sessions++
						if deployed.IsZero() || e.At.Before(deployed) {
							early++
						}
						mu.Unlock()
					},
				}))
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			admitted := func() int {
				mu.Lock()
				defer mu.Unlock()
				return sessions
			}
			for deadline := time.Now().Add(10 * time.Second); admitted() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the client never opened a session")
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if deploys != 1 || early != 0 {
				t.Fatalf("%d deploy event(s), %d of %d sessions admitted before OnDeploy returned; want 1 and 0",
					deploys, early, sessions)
			}
		})
	}
}
