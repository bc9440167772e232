package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/lanes"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/serrors"
	"starlink/internal/simnet"
)

// protoPair returns the engine's control protocol (the initiator's,
// program step 0) and some other protocol of the program — whose
// unsolicited datagrams classify as telemetry.
func protoPair(t *testing.T, e *engine.Engine) (control, telemetry string) {
	t.Helper()
	program := e.Program()
	control = program[0].Protocol
	for _, step := range program {
		if step.Protocol != control {
			return control, step.Protocol
		}
	}
	t.Fatalf("case has a single protocol %q", control)
	return "", ""
}

func src(i int) netengine.Source {
	return netengine.Source{Addr: netapi.Addr{IP: fmt.Sprintf("10.9.0.%d", i), Port: 1000}}
}

// With no ingest workers draining (the engine is built but not
// started), the watermark state machine is fully deterministic: the
// high watermark trips the flow gate and starts shedding telemetry —
// oldest first — while control keeps admitting, and every shed payload
// surfaces through the Drop hook marked ErrOverloaded.
func TestLaneWatermarkShedsTelemetryKeepsControl(t *testing.T) {
	sim := simnet.New()
	gate := netapi.NewFlowGate()
	var mu sync.Mutex
	var reasons []error
	e := build(t, sim, "slp-to-bonjour",
		engine.WithIngestWorkers(1),
		engine.WithLanePolicy(lanes.Policy{Capacity: 4, High: 6, Low: 2, Mode: lanes.ShedOldest}),
		engine.WithFlowGate(gate),
		engine.WithSink(&testSink{drop: func(_ netapi.Addr, reason error) {
			mu.Lock()
			reasons = append(reasons, reason)
			mu.Unlock()
		}}))
	control, telemetry := protoPair(t, e)

	inject := func(proto string, n *int) {
		*n++
		if err := e.Inject(proto, []byte("garbage"), src(*n), nil); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for i := 0; i < 3; i++ { // depth 3, below the high watermark
		inject(control, &n)
	}
	if gate.Blocked() {
		t.Fatal("gate paused below the high watermark")
	}
	for i := 0; i < 3; i++ { // depth 6 == High: the third crossing pauses
		inject(telemetry, &n)
	}
	if !gate.Blocked() || gate.Pauses() != 1 {
		t.Fatalf("gate blocked=%v pauses=%d after crossing High, want paused once",
			gate.Blocked(), gate.Pauses())
	}
	for i := 0; i < 2; i++ { // pressured: each telemetry arrival evicts the oldest
		inject(telemetry, &n)
	}
	inject(control, &n) // control still admits while pressured

	ld := e.Snapshot().Lanes
	ctl, tel := ld.Counters[lanes.Control], ld.Counters[lanes.Telemetry]
	if ctl.Admitted != 4 || ctl.Shed != 0 || ctl.Deferred != 1 {
		t.Errorf("control = %+v, want Admitted=4 Shed=0 Deferred=1", ctl)
	}
	if tel.Admitted != 5 || tel.Shed != 2 || tel.Deferred != 2 || tel.Depth != 3 {
		t.Errorf("telemetry = %+v, want Admitted=5 Shed=2 Deferred=2 Depth=3", tel)
	}
	if st := e.Counts(); st.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", st.Dropped)
	}

	mu.Lock()
	got := append([]error(nil), reasons...)
	mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("drop hook fired %d times, want 2 (%v)", len(got), got)
	}
	// Every shed classifies under exactly the ErrOverloaded sentinel.
	for _, reason := range got {
		for _, tc := range []struct {
			sentinel error
			want     bool
		}{
			{serrors.ErrOverloaded, true},
			{serrors.ErrDraining, false},
			{serrors.ErrClosed, false},
			{serrors.ErrAmbiguousPayload, false},
			{serrors.ErrUnknownCase, false},
			{serrors.ErrModelInvalid, false},
		} {
			if errors.Is(reason, tc.sentinel) != tc.want {
				t.Errorf("errors.Is(%v, %v) = %v, want %v", reason, tc.sentinel, !tc.want, tc.want)
			}
		}
	}

	// Teardown releases the pressured queue's gate hold so paused
	// transports wake.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if gate.Blocked() {
		t.Error("gate still blocked after Close")
	}
}

// Saturation under the race detector: concurrent producers flood the
// telemetry lane far past what one ingest worker drains, while control
// payloads keep being admitted. Structural assertions only — exact
// counts depend on scheduling, the accounting identity does not.
func TestLaneSaturationRace(t *testing.T) {
	sim := simnet.New()
	e := deploy(t, sim, "slp-to-bonjour",
		engine.WithIngestWorkers(1),
		engine.WithLanePolicy(lanes.Policy{Capacity: 64, High: 8, Low: 4, Mode: lanes.ShedOldest}))
	control, telemetry := protoPair(t, e)

	var shed atomic.Bool
	const producers = 4
	var offered [producers]uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; !shed.Load() && i < 1<<20; i++ {
				if err := e.Inject(telemetry, []byte("chatter"), src(p*1000+i%256), nil); err != nil {
					t.Error(err)
					return
				}
				offered[p]++
				if i%64 == 0 && e.Snapshot().Lanes.Counters[lanes.Telemetry].Shed > 0 {
					shed.Store(true)
				}
			}
		}(p)
	}
	// Control keeps flowing throughout the flood.
	const controls = 6
	for i := 0; i < controls; i++ {
		if err := e.Inject(control, []byte("garbage"), src(900+i), nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for e.Snapshot().Lanes.Counters[lanes.Telemetry].Depth > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ld := e.Snapshot().Lanes
	ctl, tel := ld.Counters[lanes.Control], ld.Counters[lanes.Telemetry]
	if tel.Shed == 0 {
		t.Fatal("flood never shed telemetry")
	}
	if ctl.Shed != 0 {
		t.Errorf("control shed %d payloads during a telemetry flood", ctl.Shed)
	}
	if ctl.Admitted != controls {
		t.Errorf("control admitted %d, want %d", ctl.Admitted, controls)
	}
	var total uint64
	for p := range offered {
		total += offered[p]
	}
	// Conservation: every offered telemetry payload was either admitted
	// (and later processed or still queued) or shed — ShedOldest evicts
	// admitted payloads, so admitted + rejected-at-ingress ≥ offered and
	// nothing is unaccounted.
	if tel.Admitted+tel.Shed < total {
		t.Errorf("telemetry admitted=%d shed=%d < offered=%d", tel.Admitted, tel.Shed, total)
	}
}
