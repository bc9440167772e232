package lanes

import (
	"sync"
	"sync/atomic"
	"testing"

	"starlink/internal/netapi"
)

func policy(capacity, high, low int, mode ShedMode) Policy {
	return Policy{Capacity: capacity, High: high, Low: low, Mode: mode}
}

func TestLaneStrings(t *testing.T) {
	if Control.String() != "control" || Data.String() != "data" || Telemetry.String() != "telemetry" {
		t.Fatalf("lane names: %s/%s/%s", Control, Data, Telemetry)
	}
	for _, m := range []ShedMode{ShedOldest, RejectNew, DeferOnly} {
		back, err := ParseShedMode(m.String())
		if err != nil || back != m {
			t.Fatalf("ParseShedMode(%q) = %v, %v", m.String(), back, err)
		}
	}
	if _, err := ParseShedMode("bogus"); err == nil {
		t.Fatal("ParseShedMode accepted bogus mode")
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		ok   bool
	}{
		{"default", DefaultPolicy(), true},
		{"explicit", policy(8, 12, 4, ShedOldest), true},
		{"zero capacity", policy(0, 2, 1, ShedOldest), false},
		{"high below low", policy(8, 4, 12, ShedOldest), false},
		{"high equals low", policy(8, 4, 4, ShedOldest), false},
		{"zero low", policy(8, 4, 0, ShedOldest), false},
		{"high beyond total", policy(4, 13, 2, ShedOldest), false},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPolicyScaleStaysValid(t *testing.T) {
	base := DefaultPolicy()
	for n := 1; n <= 64; n++ {
		s := base.Scale(n)
		if err := s.Validate(); err != nil {
			t.Fatalf("Scale(%d) produced invalid policy %+v: %v", n, s, err)
		}
	}
	tiny := policy(1, 3, 1, ShedOldest)
	for n := 1; n <= 8; n++ {
		if err := tiny.Scale(n).Validate(); err != nil {
			t.Fatalf("tiny Scale(%d): %v", n, err)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	q := NewQueue[int](policy(4, 11, 2, ShedOldest), nil)
	q.Enqueue(Telemetry, 30)
	q.Enqueue(Data, 20)
	q.Enqueue(Control, 10)
	q.Enqueue(Control, 11)
	q.Enqueue(Data, 21)
	want := []struct {
		v    int
		lane Lane
	}{{10, Control}, {11, Control}, {20, Data}, {21, Data}, {30, Telemetry}}
	for i, w := range want {
		v, lane, ok := q.TryDequeue()
		if !ok || v != w.v || lane != w.lane {
			t.Fatalf("dequeue %d: got %d/%s/%v, want %d/%s", i, v, lane, ok, w.v, w.lane)
		}
	}
	if _, _, ok := q.TryDequeue(); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
}

func TestWatermarkPauseResume(t *testing.T) {
	g := netapi.NewFlowGate()
	q := NewQueue[int](policy(4, 3, 1, DeferOnly), g)
	q.Enqueue(Data, 1)
	q.Enqueue(Data, 2)
	if g.Blocked() {
		t.Fatal("gate blocked below high watermark")
	}
	q.Enqueue(Data, 3) // total 3 = high
	if !g.Blocked() {
		t.Fatal("gate open at high watermark")
	}
	if !q.Pressured() {
		t.Fatal("queue not pressured at high watermark")
	}
	q.TryDequeue() // depth 2 > low: still paused (hysteresis)
	if !g.Blocked() {
		t.Fatal("gate reopened above low watermark")
	}
	q.TryDequeue() // depth 1 = low: resume
	if g.Blocked() {
		t.Fatal("gate still blocked at low watermark")
	}
	if q.Pressured() {
		t.Fatal("queue still pressured after recovery")
	}
	if g.Pauses() != 1 {
		t.Fatalf("pause cycles = %d, want 1", g.Pauses())
	}
}

func TestPressureShedsTelemetryFirst(t *testing.T) {
	// High=2 pressures the queue immediately; telemetry then sheds
	// while control and data keep admitting.
	q := NewQueue[int](policy(4, 2, 1, ShedOldest), nil)
	q.Enqueue(Telemetry, 100)
	q.Enqueue(Telemetry, 101) // now pressured
	if !q.Pressured() {
		t.Fatal("queue not pressured")
	}
	v, victim := q.Enqueue(Telemetry, 102)
	if v != Evicted || victim != 100 {
		t.Fatalf("pressured telemetry enqueue: %v, victim %d; want Evicted, 100", v, victim)
	}
	if v, _ := q.Enqueue(Control, 1); v != Admitted {
		t.Fatalf("pressured control enqueue: %v, want Admitted", v)
	}
	if v, _ := q.Enqueue(Data, 2); v != Admitted {
		t.Fatalf("pressured data enqueue: %v, want Admitted", v)
	}
	c := q.Counters()
	if c[Telemetry].Shed != 1 || c[Control].Shed != 0 || c[Data].Shed != 0 {
		t.Fatalf("shed counters: %+v", c)
	}
	if c[Control].Deferred != 1 || c[Data].Deferred != 1 {
		t.Fatalf("deferred counters: %+v", c)
	}
	// Priority still holds on the way out.
	if v, lane, _ := q.TryDequeue(); v != 1 || lane != Control {
		t.Fatalf("first out: %d/%s, want 1/control", v, lane)
	}
}

func TestRejectNewMode(t *testing.T) {
	q := NewQueue[int](policy(4, 2, 1, RejectNew), nil)
	q.Enqueue(Telemetry, 100)
	q.Enqueue(Telemetry, 101)
	if v, _ := q.Enqueue(Telemetry, 102); v != Rejected {
		t.Fatalf("pressured telemetry under reject-new: %v, want Rejected", v)
	}
	// The queued items survive.
	if v, _, _ := q.TryDequeue(); v != 100 {
		t.Fatalf("reject-new displaced queued item: got %d", v)
	}
}

func TestDeferOnlyShedsOnlyOnFullRing(t *testing.T) {
	q := NewQueue[int](policy(2, 3, 1, DeferOnly), nil)
	for i := 0; i < 2; i++ {
		if v, _ := q.Enqueue(Telemetry, i); v != Admitted {
			t.Fatalf("telemetry %d: %v", i, v)
		}
	}
	// Pressured (depth 2 < high 3? no: high=3 needs depth>=3). Fill data.
	q.Enqueue(Data, 10)
	if !q.Pressured() {
		t.Fatal("not pressured at depth 3")
	}
	// Telemetry ring is full: defer-only still refuses, but only
	// because the ring is full, not because of pressure.
	if v, _ := q.Enqueue(Telemetry, 2); v != Rejected {
		t.Fatal("full telemetry ring admitted under defer-only")
	}
	// Data ring has room: admitted despite pressure.
	if v, _ := q.Enqueue(Data, 11); v != Admitted {
		t.Fatal("defer-only shed data with ring room")
	}
}

func TestFullRingBehavior(t *testing.T) {
	// ShedOldest: full data ring evicts its oldest; full control ring
	// refuses the arrival (control keeps its oldest).
	q := NewQueue[int](policy(2, 6, 1, ShedOldest), nil)
	q.Enqueue(Data, 20)
	q.Enqueue(Data, 21)
	v, victim := q.Enqueue(Data, 22)
	if v != Evicted || victim != 20 {
		t.Fatalf("full data ring: %v victim %d, want Evicted 20", v, victim)
	}
	q.Enqueue(Control, 10)
	q.Enqueue(Control, 11)
	if v, _ := q.Enqueue(Control, 12); v != Rejected {
		t.Fatalf("full control ring: %v, want Rejected", v)
	}
	c := q.Counters()
	if c[Data].Shed != 1 || c[Control].Shed != 1 {
		t.Fatalf("shed counters: %+v", c)
	}
}

func TestCloseDrainsAndReleasesGate(t *testing.T) {
	g := netapi.NewFlowGate()
	q := NewQueue[int](policy(4, 2, 1, DeferOnly), g)
	q.Enqueue(Control, 1)
	q.Enqueue(Telemetry, 3)
	q.Enqueue(Data, 2)
	if !g.Blocked() {
		t.Fatal("gate open above high watermark")
	}
	var drained []int
	q.Close(func(_ Lane, v int) { drained = append(drained, v) })
	if g.Blocked() {
		t.Fatal("Close left the gate blocked")
	}
	// Highest priority first.
	if len(drained) != 3 || drained[0] != 1 || drained[1] != 2 || drained[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", drained)
	}
	if v, _ := q.Enqueue(Control, 9); v != Rejected {
		t.Fatal("closed queue admitted an item")
	}
	if _, _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue succeeded on closed queue")
	}
	q.Close(nil) // idempotent
}

func TestDequeueBlocksUntilEnqueue(t *testing.T) {
	q := NewQueue[int](policy(4, 11, 2, ShedOldest), nil)
	got := make(chan int, 1)
	go func() {
		v, _, ok := q.Dequeue()
		if ok {
			got <- v
		}
	}()
	q.Enqueue(Data, 7)
	if v := <-got; v != 7 {
		t.Fatalf("blocking dequeue got %d", v)
	}
}

// TestConcurrentProducersConsumers exercises the queue under -race:
// every admitted item is dequeued exactly once, and the shed + drained
// + dequeued total matches what producers offered.
func TestConcurrentProducersConsumers(t *testing.T) {
	g := netapi.NewFlowGate()
	q := NewQueue[uint64](policy(64, 96, 32, ShedOldest), g)
	const producers, perProducer = 8, 2000
	var wg sync.WaitGroup
	var shed, evicted [NumLanes]uint64
	var shedMu sync.Mutex
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				lane := Lane(i % NumLanes)
				v, victim := q.Enqueue(lane, uint64(p*perProducer+i))
				switch v {
				case Rejected:
					shedMu.Lock()
					shed[lane]++
					shedMu.Unlock()
				case Evicted:
					_ = victim
					shedMu.Lock()
					evicted[lane]++
					shedMu.Unlock()
				}
			}
		}(p)
	}
	var consumed atomic.Uint64
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				_, _, ok := q.Dequeue()
				if !ok {
					return
				}
				consumed.Add(1)
			}
		}()
	}
	wg.Wait()
	drained := 0
	q.Close(func(Lane, uint64) { drained++ })
	cwg.Wait()

	c := q.Counters()
	var totalShed uint64
	for l := range c {
		totalShed += c[l].Shed
	}
	var callerShed uint64
	for l := range shed {
		callerShed += shed[l] + evicted[l]
	}
	if totalShed != callerShed {
		t.Fatalf("queue shed %d, callers saw %d", totalShed, callerShed)
	}
	// Every offered item is rejected, evicted, consumed, or drained —
	// exactly once.
	offered := uint64(producers * perProducer)
	if got := consumed.Load() + uint64(drained) + callerShed; got != offered {
		t.Fatalf("accounting: consumed %d + drained %d + shed %d = %d, offered %d",
			consumed.Load(), drained, callerShed, got, offered)
	}
	if q.MaxDepth() > NumLanes*64 {
		t.Fatalf("max depth %d exceeded total capacity %d", q.MaxDepth(), NumLanes*64)
	}
}

func TestSumRollup(t *testing.T) {
	q1 := NewQueue[int](policy(2, 6, 1, ShedOldest), nil)
	q2 := NewQueue[int](policy(2, 6, 1, ShedOldest), nil)
	q1.Enqueue(Control, 1)
	q2.Enqueue(Control, 2)
	q2.Enqueue(Telemetry, 3)
	agg := Sum(q1.Counters(), q2.Counters())
	if agg[Control].Admitted != 2 || agg[Control].Depth != 2 || agg[Control].Capacity != 4 {
		t.Fatalf("control rollup: %+v", agg[Control])
	}
	if agg[Telemetry].Admitted != 1 {
		t.Fatalf("telemetry rollup: %+v", agg[Telemetry])
	}
}

// TestEnqueueDequeueAllocFree pins the accept path at zero
// allocations: lane enqueue and dequeue run once per ingested payload
// and must not allocate.
func TestEnqueueDequeueAllocFree(t *testing.T) {
	q := NewQueue[int](policy(16, 40, 8, ShedOldest), netapi.NewFlowGate())
	if avg := testing.AllocsPerRun(1000, func() {
		q.Enqueue(Control, 1)
		q.Enqueue(Telemetry, 2)
		q.TryDequeue()
		q.TryDequeue()
	}); avg != 0 {
		t.Fatalf("enqueue/dequeue allocates %.2f per op, want 0", avg)
	}
}

// Rings grow on demand: a fresh queue holds nothing, a lane that queues
// a handful holds ringMin slots, and each lane still accepts exactly
// Policy.Capacity items — in FIFO order across a wrap followed by growth.
func TestRingsGrowOnDemand(t *testing.T) {
	const capacity = 100 // not a power of two: the last doubling is clipped
	q := NewQueue[int](policy(capacity, 3*capacity, 1, RejectNew), nil)
	slots := func() (n int) {
		for l := range q.rings {
			n += len(q.rings[l].buf)
		}
		return n
	}
	if slots() != 0 {
		t.Fatalf("fresh queue holds %d slots, want none before the first enqueue", slots())
	}
	// Wrap the data ring's head before it has to grow.
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			if v, _ := q.Enqueue(Data, next); v != Admitted {
				t.Fatalf("item %d: verdict %v below capacity", next, v)
			}
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			got, lane, ok := q.TryDequeue()
			if !ok || lane != Data || got != want {
				t.Fatalf("dequeued %d (lane %v, ok %v), want %d: FIFO broken", got, lane, ok, want)
			}
			want++
		}
	}
	push(ringMin)
	pop(ringMin - 3)
	if len(q.rings[Data].buf) != ringMin || slots() != ringMin {
		t.Fatalf("data ring %d slots, queue %d, want %d: one small ring, others untouched", len(q.rings[Data].buf), slots(), ringMin)
	}
	push(capacity - 3) // head is mid-ring: growth must unwrap
	if len(q.rings[Data].buf) != capacity {
		t.Fatalf("full data ring has %d slots, want Capacity %d", len(q.rings[Data].buf), capacity)
	}
	if v, _ := q.Enqueue(Data, -1); v != Rejected {
		t.Fatalf("item beyond Capacity: verdict %v, want Rejected", v)
	}
	for _, l := range []Lane{Control, Telemetry} {
		for i := 0; i < capacity; i++ {
			if v, _ := q.Enqueue(l, i); v != Admitted {
				t.Fatalf("%s item %d: verdict %v below capacity", l, i, v)
			}
		}
	}
	if c := q.Counters(); c[Data].Depth != capacity || c[Data].Capacity != capacity {
		t.Fatalf("data lane depth %d capacity %d, want %d/%d", c[Data].Depth, c[Data].Capacity, capacity, capacity)
	}
	for i := 0; i < capacity; i++ {
		if _, lane, _ := q.TryDequeue(); lane != Control {
			t.Fatalf("dequeue %d from lane %v, want control first", i, lane)
		}
	}
	pop(capacity) // the data lane, still in order after growing full
}
