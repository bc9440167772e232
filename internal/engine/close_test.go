package engine_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/serrors"
	"starlink/internal/simnet"
)

// TestCloseRacingInject holds Close racing a dispatch: a payload Inject
// accepted (returned nil) is on some lane's books — admitted, or shed and
// reported — exactly once, and one Close turned away ends in ErrClosed;
// either way its lease comes back, and so does every message drawn.
// Four goroutines inject leased payloads, each until the engine refuses
// one, while Close runs. The payloads fail to parse, so nothing but
// Inject reaches the queues.
func TestCloseRacingInject(t *testing.T) {
	const rounds, injectors = 40, 4
	garbage := []byte{0xff, 0xff, 0xff, 0xff}
	leases0 := netapi.LeasedBuffers()
	for round := 0; round < rounds; round++ {
		e := deploy(t, simnet.New(), "slp-to-bonjour")
		var accepted atomic.Int64
		var started, done sync.WaitGroup
		started.Add(injectors)
		done.Add(injectors)
		for g := 0; g < injectors; g++ {
			go func(g int) {
				defer done.Done()
				src := netengine.Source{Addr: netapi.Addr{IP: "10.0.1.1", Port: 4000 + g}}
				for i := 0; ; i++ {
					if i == 8 {
						started.Done()
					}
					lease := netapi.NewBuffer()
					lease.SetFilled(copy(lease.Backing(), garbage))
					err := e.Inject("SLP", lease.Bytes(), src, lease)
					if err != nil {
						if !errors.Is(err, serrors.ErrClosed) {
							t.Errorf("round %d: Inject: %v", round, err)
						}
						if i < 8 {
							started.Done()
						}
						return
					}
					accepted.Add(1)
				}
			}(g)
		}
		started.Wait()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		done.Wait()
		snap := e.Snapshot()
		var booked uint64
		for _, c := range snap.Lanes.Counters {
			booked += c.Admitted + c.Shed - c.Evicted
		}
		if n := accepted.Load(); booked != uint64(n) {
			t.Fatalf("round %d: Inject accepted %d payloads, the lanes booked %d", round, n, booked)
		}
		if snap.Messages != 0 {
			t.Fatalf("round %d: %d messages outstanding after Close", round, snap.Messages)
		}
	}
	if n := netapi.LeasedBuffers() - leases0; n != 0 {
		t.Fatalf("%+d leases outstanding after %d rounds", n, rounds)
	}
}
