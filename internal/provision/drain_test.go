package provision

import (
	"context"
	"testing"

	"starlink/internal/engine"
	"starlink/internal/simnet"
)

// TestDrainFence holds the drain contract at the moment it becomes
// visible: once Shutdown has flipped the dispatcher to Draining, every
// engine it hosts already refuses new sessions, before any engine's own
// drain has begun. An engine still Running in that window admits a late
// initiator a caller of State was told would be refused.
func TestDrainFence(t *testing.T) {
	d, err := Deploy(context.Background(), builtin(t), simnet.New(), "10.0.0.5",
		[]string{"slp-to-bonjour", "bonjour-to-slp", "upnp-to-slp"})
	if err != nil {
		t.Fatal(err)
	}
	var states []engine.State
	drainBegun = func() {
		if got := d.State(); got != engine.StateDraining {
			t.Errorf("dispatcher state %v in the drain window, want draining", got)
		}
		d.mu.Lock()
		for _, dep := range d.deployed {
			states = append(states, dep.eng.State())
		}
		d.mu.Unlock()
	}
	defer func() { drainBegun = func() {} }()
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 {
		t.Fatalf("saw %d engines in the drain window, want 3", len(states))
	}
	for i, s := range states {
		if s != engine.StateDraining {
			t.Errorf("engine %d is %v while the dispatcher reports draining: it still admits sessions", i, s)
		}
	}
}
