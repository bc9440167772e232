package engine_test

import (
	"context"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/provision"
	"starlink/internal/realnet"
	"starlink/internal/simnet"
	"starlink/internal/translation"
)

// deployCase deploys a builtin case on a fresh host of rt the one way a
// bridge is deployed: provision.Deploy of the one case.
func deployCase(ctx context.Context, t *testing.T, rt netapi.Runtime, hostIP, caseName string, opts ...engine.Option) (*provision.Dispatcher, error) {
	t.Helper()
	return provision.Deploy(ctx, builtin(t), rt, hostIP, []string{caseName}, provision.WithEngineOptions(opts...))
}

// hostFree fails the test unless hostIP can be created again on the
// simulator — that is, unless whoever held it released it.
func hostFree(t *testing.T, sim *simnet.Net, hostIP, after string) {
	t.Helper()
	node, err := sim.NewNode(hostIP)
	if err != nil {
		t.Fatalf("node leaked by %s: %v", after, err)
	}
	_ = node.Close()
}

func TestDeployAllCases(t *testing.T) {
	sim := simnet.New()
	for i, name := range builtin(t).MergedNames() {
		// Distinct host per bridge to avoid group-port collisions.
		d, err := deployCase(context.Background(), t, sim, "10.0.9."+string(rune('1'+i)), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, _ := d.Engine(name)
		if cases := d.Cases(); len(cases) != 1 || e == nil || d.State() != engine.StateRunning || e.State() != engine.StateRunning {
			t.Fatalf("%s: deployed cases %v in state %v", name, cases, d.State())
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
}

// TestDeployFailureReleasesNode is the regression test for the node leak
// on failed deploys: when engine construction fails after the bridge
// host was created, the host must be closed — under simnet, that frees
// its IP for reuse. The failure is forced with an empty
// translation-function registry: the builtin cases' logic references
// T-functions, so Logic.Validate rejects it after the node exists.
func TestDeployFailureReleasesNode(t *testing.T) {
	sim := simnet.New()
	_, err := deployCase(context.Background(), t, sim, "10.0.0.5", "slp-to-bonjour",
		engine.WithTranslationFuncs(&translation.FuncRegistry{}))
	if err == nil {
		t.Fatal("deploy with an empty T-function registry should fail")
	}
	hostFree(t, sim, "10.0.0.5", "failed deploy")
}

// TestDeployCloseReleasesNode verifies the owning side of the same
// contract: closing a healthy deployment releases its host, and so does
// draining it. (A cancelled deploy releasing it is TestDeployOwnsNode in
// internal/provision.)
func TestDeployCloseReleasesNode(t *testing.T) {
	sim := simnet.New()
	for name, stop := range map[string]func(*provision.Dispatcher) error{
		"Close":    (*provision.Dispatcher).Close,
		"Shutdown": func(d *provision.Dispatcher) error { return d.Shutdown(context.Background()) },
	} {
		d, err := deployCase(context.Background(), t, sim, "10.0.0.5", "slp-to-bonjour")
		if err != nil {
			t.Fatal(err)
		}
		if err := stop(d); err != nil {
			t.Fatal(err)
		}
		hostFree(t, sim, "10.0.0.5", name)
	}
}

// TestBridgeOverRealSockets runs the paper's SLP→Bonjour case over real
// loopback UDP — the deployment mode of the starlinkd daemon.
func TestBridgeOverRealSockets(t *testing.T) {
	rt := realnet.New()
	var ends sessionEnds
	bridge, err := deployCase(context.Background(), t, rt, "127.0.0.1", "slp-to-bonjour", ends.hook())
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	svcNode, _ := rt.NewNode("svc")
	responder, err := dnssd.NewResponder(svcNode, "printer.local", "service:printer://127.0.0.1:515")
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()

	cliNode, _ := rt.NewNode("cli")
	ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(300*time.Millisecond))
	var res slp.LookupResult
	done := false
	ua.Lookup("service:printer", func(r slp.LookupResult) { res = r; done = true })
	if err := rt.RunUntil(func() bool { return done }, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.URLs) != 1 || res.URLs[0] != "service:printer://127.0.0.1:515" {
		t.Fatalf("urls = %v", res.URLs)
	}
	if errs := ends.errs(); len(errs) != 1 || errs[0] != "<nil>" {
		t.Fatalf("session ends = %v, want one clean session", errs)
	}
}
