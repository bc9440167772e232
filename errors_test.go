package starlink_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"starlink"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/simnet"
)

// TestErrorTaxonomyDeploy exercises the deploy-time half of the
// structured error taxonomy with errors.Is assertions.
func TestErrorTaxonomyDeploy(t *testing.T) {
	newFW := func(t *testing.T) *starlink.Framework {
		t.Helper()
		fw, err := starlink.New(starlink.Simulated())
		if err != nil {
			t.Fatal(err)
		}
		return fw
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	tests := []struct {
		name string
		run  func(t *testing.T) error
		want error
	}{
		{
			name: "deploy bridge of unknown case",
			run: func(t *testing.T) error {
				_, err := newFW(t).DeployBridge(context.Background(), "10.0.0.5", "corba-to-soap")
				return err
			},
			want: starlink.ErrUnknownCase,
		},
		{
			name: "deploy dispatcher selecting unknown case",
			run: func(t *testing.T) error {
				_, err := newFW(t).DeployDispatcher(context.Background(), "10.0.0.5",
					[]string{"slp-to-bonjour", "corba-to-soap"})
				return err
			},
			want: starlink.ErrUnknownCase,
		},
		{
			name: "load malformed MDL",
			run: func(t *testing.T) error {
				return newFW(t).Registry().LoadMDL("<MDL protocol=")
			},
			want: starlink.ErrModelInvalid,
		},
		{
			name: "load merged automaton with unresolved references",
			run: func(t *testing.T) error {
				return newFW(t).Registry().LoadMerged(
					`<MergedAutomaton name="x" initiator="NOPE"><AutomatonRef protocol="NOPE" name="missing"/></MergedAutomaton>`)
			},
			want: starlink.ErrModelInvalid,
		},
		{
			name: "unload unknown case",
			run: func(t *testing.T) error {
				return newFW(t).Registry().Unload("corba-to-soap")
			},
			want: starlink.ErrUnknownCase,
		},
		{
			name: "deploy with cancelled context",
			run: func(t *testing.T) error {
				_, err := newFW(t).DeployBridge(cancelled, "10.0.0.5", "slp-to-bonjour")
				return err
			},
			want: context.Canceled,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("want an error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
		})
	}
}

// TestErrOverloadedObservable drives the max-sessions bound and
// asserts the rejection is observable as a drop wrapping
// ErrOverloaded.
func TestErrOverloadedObservable(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	var drops []starlink.Drop
	bridge, err := fw.DeployBridge(context.Background(), "10.0.0.5", "slp-to-bonjour",
		starlink.WithMaxSessions(1),
		starlink.WithObserver(starlink.Hooks{
			Drop: func(d starlink.Drop) { drops = append(drops, d) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 3; i++ {
		n, _ := sim.NewNode(fmt.Sprintf("10.0.1.%d", i+1))
		ua := slp.NewUserAgent(n, slp.WithConvergenceWait(300*time.Millisecond))
		ua.Lookup("service:printer", func(r slp.LookupResult) { done++ })
	}
	if err := rt.RunUntil(func() bool { return done == 3 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()

	m := bridge.Metrics()
	if m.Sessions.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2 (metrics %+v)", m.Sessions.Rejected, m)
	}
	if len(drops) != 2 {
		t.Fatalf("drops = %d, want 2", len(drops))
	}
	for _, d := range drops {
		if !errors.Is(d.Reason, starlink.ErrOverloaded) {
			t.Fatalf("drop reason %v is not ErrOverloaded", d.Reason)
		}
		if d.Case != "slp-to-bonjour" || d.Origin == "" {
			t.Fatalf("drop missing detail: %+v", d)
		}
	}
}

// TestErrAmbiguousPayloadObservable sends one SLP request at a
// dispatcher hosting two SLP-initiated cases and asserts the
// classification event carries ErrAmbiguousPayload plus the candidate
// list, while the payload is still dispatched deterministically.
func TestErrAmbiguousPayloadObservable(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	var ambiguous atomic.Pointer[starlink.Classification]
	d, err := fw.DeployDispatcher(context.Background(), "10.0.0.5",
		[]string{"slp-to-bonjour", "slp-to-upnp"},
		starlink.WithObserver(starlink.Hooks{
			Classify: func(c starlink.Classification) {
				if c.Ambiguous {
					ambiguous.Store(&c)
				}
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	svcNode, _ := sim.NewNode("10.0.0.9")
	if _, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://10.0.0.9:515"); err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
	done := false
	var urls []string
	ua.Lookup("service:printer", func(r slp.LookupResult) { done = true; urls = r.URLs })
	if err := rt.RunUntil(func() bool { return done }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(urls) != 1 {
		t.Fatalf("urls = %v (ambiguous payload was not dispatched)", urls)
	}
	ev := ambiguous.Load()
	if ev == nil {
		t.Fatal("no ambiguous classification observed")
	}
	if !errors.Is(ev.Err, starlink.ErrAmbiguousPayload) {
		t.Fatalf("classification err %v is not ErrAmbiguousPayload", ev.Err)
	}
	if len(ev.Candidates) != 2 || ev.Case != "slp-to-bonjour" {
		t.Fatalf("classification = %+v", ev)
	}
	if m := d.Metrics(); m.Dispatch.Ambiguous != 1 {
		t.Fatalf("dispatch metrics = %+v", m.Dispatch)
	}
}
