package netapi_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
	"starlink/internal/simnet"
)

func TestAddrStringParseRoundTrip(t *testing.T) {
	for _, a := range []netapi.Addr{
		{IP: "10.0.0.1", Port: 427},
		{IP: "239.255.255.253", Port: 427},
		{IP: "127.0.0.1", Port: 0},
	} {
		got, err := netapi.ParseAddr(a.String())
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
}

func TestParseAddrRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "10.0.0.1", ":427", "10.0.0.1:", "10.0.0.1:x", "10.0.0.1:-1", "10.0.0.1:70000"} {
		if _, err := netapi.ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) should fail", s)
		}
	}
}

func TestAddrPredicates(t *testing.T) {
	if !(netapi.Addr{}).IsZero() {
		t.Fatal("zero addr must be zero")
	}
	if (netapi.Addr{IP: "10.0.0.1", Port: 1}).IsZero() {
		t.Fatal("non-zero addr must not be zero")
	}
	if !(netapi.Addr{IP: "224.0.0.1"}).IsMulticast() || !(netapi.Addr{IP: "239.255.255.253"}).IsMulticast() {
		t.Fatal("224/4 addresses are multicast")
	}
	if (netapi.Addr{IP: "10.0.0.1"}).IsMulticast() || (netapi.Addr{IP: "garbage"}).IsMulticast() {
		t.Fatal("unicast/garbage addresses are not multicast")
	}
}

// A datagram's Packet.From must be a usable reply address: sending back
// to it reaches the original socket (the mechanism behind the engine's
// transparent replies).
func TestSourceReplyRoundTrip(t *testing.T) {
	sim := simnet.New()
	serverNode, _ := sim.NewNode("10.0.0.5")
	clientNode, _ := sim.NewNode("10.0.0.1")

	var server netapi.UDPSocket
	server, err := serverNode.OpenUDP(9000, func(pkt netapi.Packet) {
		if err := server.Send(pkt.From, append([]byte("re:"), pkt.Data...)); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	client, err := clientNode.OpenUDP(0, func(pkt netapi.Packet) { got = string(pkt.Data) })
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(netapi.Addr{IP: "10.0.0.5", Port: 9000}, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(func() bool { return got != "" }, time.Second); err != nil {
		t.Fatal(err)
	}
	if got != "re:ping" {
		t.Fatalf("got %q", got)
	}
}

// Concurrent replies from multiple goroutines must all arrive: the
// runtimes guarantee Send is safe to call off the dispatcher (the
// engine replies from per-session goroutines).
func TestConcurrentReplySimnet(t *testing.T) {
	sim := simnet.New()
	serverNode, _ := sim.NewNode("10.0.0.5")
	clientNode, _ := sim.NewNode("10.0.0.1")

	const n = 32
	received := 0
	client, err := clientNode.OpenUDP(0, func(netapi.Packet) { received++ })
	if err != nil {
		t.Fatal(err)
	}
	server, err := serverNode.OpenUDP(9000, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	dest := client.LocalAddr()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := server.Send(dest, []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := sim.RunUntil(func() bool { return received == n }, time.Second); err != nil {
		t.Fatalf("received %d of %d: %v", received, n, err)
	}
}

func TestConcurrentReplyRealnet(t *testing.T) {
	rt := realnet.New()
	serverNode, _ := rt.NewNode("10.0.0.5")
	clientNode, _ := rt.NewNode("10.0.0.1")

	const n = 32
	var mu sync.Mutex
	received := 0
	client, err := clientNode.OpenUDP(0, func(netapi.Packet) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	server, err := serverNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	dest := client.LocalAddr()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := server.Send(dest, []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	err = rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received == n
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

// The WorkAdd/WorkDone contract: RunUntil must not conclude "no pending
// events" while handed-off work is in flight, and must observe the
// events that work schedules when it completes.
func TestWorkTrackerHoldsVirtualClock(t *testing.T) {
	sim := simnet.New()
	nd, _ := sim.NewNode("10.0.0.1")

	fired := false
	// Seed one event so the loop starts; its handler hands work off to
	// a goroutine that schedules the real event only after a delay.
	nd.After(time.Millisecond, func() {
		nd.WorkAdd()
		go func() {
			time.Sleep(20 * time.Millisecond) // real time, off-dispatcher
			nd.After(time.Millisecond, func() { fired = true })
			nd.WorkDone()
		}()
	})
	if err := sim.RunUntil(func() bool { return fired }, time.Second); err != nil {
		t.Fatalf("RunUntil gave up while work was in flight: %v", err)
	}
}

// Addr.String and Addr.IsMulticast run on every datagram send; the
// //starlink:hotpath annotations (enforced by starlink-vet's
// hotpathalloc analyzer) keep fmt-based parsing from regressing back
// in, so this only checks rendering correctness.
func TestAddrString(t *testing.T) {
	a := netapi.Addr{IP: "239.255.255.253", Port: 42700}
	if s := a.String(); s != "239.255.255.253:42700" {
		t.Fatalf("String = %q", s)
	}
}

func TestIsMulticastEdgeCases(t *testing.T) {
	for ip, want := range map[string]bool{
		"224.0.0.1":       true,
		"239.255.255.253": true,
		"223.9.9.9":       false,
		"240.0.0.1":       false,
		"22.4.0.1":        false,
		"2249.0.0.1":      false, // only 1-3 digits then a dot
		"224":             false,
		".224.0.0.1":      false,
		"abc.0.0.1":       false,
	} {
		if got := (netapi.Addr{IP: ip}).IsMulticast(); got != want {
			t.Errorf("IsMulticast(%q) = %v, want %v", ip, got, want)
		}
	}
}

// A leased buffer must round-trip through take/release, signalling the
// transfer through the dispatcher's own flag, and a double release
// must panic (it would hand one buffer to two owners).
func TestBufferLeaseLifecycle(t *testing.T) {
	b := netapi.NewBuffer()
	copy(b.Backing(), "hello")
	b.SetFilled(5)
	if string(b.Bytes()) != "hello" {
		t.Fatalf("Bytes = %q", b.Bytes())
	}
	retained := false
	pkt := netapi.Packet{Data: b.Bytes(), Buf: b}
	pkt.BindLeaseFlag(&retained)
	lease := pkt.TakeLease()
	if lease != b {
		t.Fatal("TakeLease must hand over the packet's buffer")
	}
	if !retained {
		t.Fatal("TakeLease must set the dispatcher's bound lease flag")
	}
	lease.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	lease.Release()
}

func TestTakeLeaseNilBuf(t *testing.T) {
	if (netapi.Packet{Data: []byte("x")}).TakeLease() != nil {
		t.Fatal("TakeLease on heap-owned data must be nil")
	}
}

// A slab's accounting must balance through every size it takes: Resize
// releases what it drops, adds only empty slots, reuses the storage an
// earlier size left behind, and leaves transferred (nil) slots alone.
func TestBatchResizeBalancesLeases(t *testing.T) {
	base := netapi.LeasedBuffers()
	leased := func() int64 { return netapi.LeasedBuffers() - base }

	b := netapi.Batch(nil).Resize(1)
	b.Refill()
	b = b.Resize(4)
	if len(b) != 4 || leased() != 1 {
		t.Fatalf("grown to %d slots with %d leased, want 4 slots and the 1 lease it had", len(b), leased())
	}
	b.Refill()
	if leased() != 4 {
		t.Fatalf("%d leased after Refill, want 4", leased())
	}
	taken := b[2]
	b[2] = nil // transferred to a handler
	first := &b[0]
	b = b.Resize(1)
	if len(b) != 1 || leased() != 2 {
		t.Fatalf("shrunk to %d slots with %d leased, want 1 slot and 2 leases (slot 0 and the transferred one)", len(b), leased())
	}
	b = b.Resize(4)
	if &b[0] != first {
		t.Fatal("regrowing within the old capacity must reuse the slab's storage")
	}
	for i, buf := range b[1:] {
		if buf != nil {
			t.Fatalf("regrown slot %d is not empty", i+1)
		}
	}
	taken.Release()
	b.Release()
	if leased() != 0 {
		t.Fatalf("%d leased after settling the slab, want 0", leased())
	}
}
