package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"starlink/internal/netapi"
)

func TestVirtualClockAdvances(t *testing.T) {
	sim := New()
	n, err := sim.NewNode("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	start := n.Now()
	fired := false
	n.After(5*time.Second, func() { fired = true })
	sim.Run(10 * time.Second)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if got := n.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("clock advanced %v, want 10s", got)
	}
}

func TestTimerCancel(t *testing.T) {
	sim := New()
	n, _ := sim.NewNode("10.0.0.1")
	fired := false
	tm := n.NewTimer(func() { fired = true })
	tm.Reset(time.Second)
	tm.Stop()
	sim.Run(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm.Stop() // stopping a stopped timer is a no-op
}

// A timer that fires is forgotten: nothing registers a timer, so a long
// run's fired timers (and their closures) do not accumulate, and a
// reusable timer holds only its pending arm.
func TestFiredTimersAreForgotten(t *testing.T) {
	sim := New()
	n, _ := sim.NewNode("10.0.0.1")
	const timers = 10000
	fired := 0
	for i := 0; i < timers; i++ {
		n.After(time.Duration(i)*time.Microsecond, func() { fired++ })
	}
	armed := n.NewTimer(func() {})
	armed.Reset(time.Hour)
	sim.Run(time.Second)
	if fired != timers {
		t.Fatalf("%d of %d timers fired", fired, timers)
	}
	if got := len(sim.events); got != 1 {
		t.Fatalf("%d events pending after %d fired, want only the armed timer", got, timers)
	}
	armed.Stop()
	if _, pending := sim.peekLocked(); pending {
		t.Fatal("the stopped timer is still pending")
	}
}

func TestTimerOrdering(t *testing.T) {
	sim := New()
	n, _ := sim.NewNode("10.0.0.1")
	var order []int
	n.After(3*time.Second, func() { order = append(order, 3) })
	n.After(1*time.Second, func() { order = append(order, 1) })
	n.After(2*time.Second, func() { order = append(order, 2) })
	sim.RunToQuiescence()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestUnicastUDP(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	b, _ := sim.NewNode("10.0.0.2")

	var got []netapi.Packet
	bs, err := b.OpenUDP(4000, func(p netapi.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	as, err := a.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Send(bs.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if len(got) != 1 {
		t.Fatalf("packets = %d", len(got))
	}
	if string(got[0].Data) != "hello" {
		t.Fatalf("data = %q", got[0].Data)
	}
	if got[0].From != as.LocalAddr() {
		t.Fatalf("from = %v", got[0].From)
	}
}

func TestUDPToUnboundPortIsDropped(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	as, _ := a.OpenUDP(0, func(netapi.Packet) {})
	if err := as.Send(netapi.Addr{IP: "10.0.0.9", Port: 1}, []byte("x")); err != nil {
		t.Fatal(err) // silently dropped, like real UDP
	}
	sim.RunToQuiescence()
	if sim.PacketsDropped != 1 {
		t.Fatalf("dropped = %d", sim.PacketsDropped)
	}
}

func TestMulticastFanout(t *testing.T) {
	sim := New()
	group := netapi.Addr{IP: "239.255.255.253", Port: 427}

	var recvA, recvB int
	a, _ := sim.NewNode("10.0.0.1")
	b, _ := sim.NewNode("10.0.0.2")
	c, _ := sim.NewNode("10.0.0.3")
	if _, err := a.JoinGroup(group, func(netapi.Packet) { recvA++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.JoinGroup(group, func(netapi.Packet) { recvB++ }); err != nil {
		t.Fatal(err)
	}
	cs, _ := c.OpenUDP(0, func(netapi.Packet) {})
	if err := cs.Send(group, []byte("query")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if recvA != 1 || recvB != 1 {
		t.Fatalf("recvA=%d recvB=%d", recvA, recvB)
	}
}

func TestJoinGroupRejectsUnicastAddr(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	if _, err := a.JoinGroup(netapi.Addr{IP: "10.0.0.2", Port: 1}, func(netapi.Packet) {}); err == nil {
		t.Fatal("unicast join should fail")
	}
}

func TestGroupMemberReceivesUnicastReply(t *testing.T) {
	// SLP pattern: service joins group; client multicasts; service
	// replies unicast to the client's source address.
	sim := New()
	group := netapi.Addr{IP: "239.255.255.253", Port: 427}
	svcNode, _ := sim.NewNode("10.0.0.2")
	cliNode, _ := sim.NewNode("10.0.0.1")

	var svcSock netapi.UDPSocket
	svcSock, err := svcNode.JoinGroup(group, func(p netapi.Packet) {
		if err := svcSock.Send(p.From, []byte("reply:"+string(p.Data))); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	cliSock, _ := cliNode.OpenUDP(0, func(p netapi.Packet) { got = string(p.Data) })
	if err := cliSock.Send(group, []byte("req")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if got != "reply:req" {
		t.Fatalf("got %q", got)
	}
}

func TestSocketClose(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	b, _ := sim.NewNode("10.0.0.2")
	recv := 0
	bs, _ := b.OpenUDP(4000, func(netapi.Packet) { recv++ })
	as, _ := a.OpenUDP(0, func(netapi.Packet) {})
	if err := as.Send(bs.LocalAddr(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if recv != 0 {
		t.Fatal("closed socket received")
	}
	if err := bs.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := as.Close(); err != nil {
		t.Fatal(err)
	}
	if err := as.Send(netapi.Addr{IP: "10.0.0.2", Port: 4000}, []byte("x")); err == nil {
		t.Fatal("send on closed socket should fail")
	}
	// Port is reusable after close.
	if _, err := b.OpenUDP(4000, func(netapi.Packet) {}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateBindFails(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	if _, err := a.OpenUDP(4000, func(netapi.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenUDP(4000, func(netapi.Packet) {}); err == nil {
		t.Fatal("duplicate bind should fail")
	}
}

func TestDuplicateNodeFails(t *testing.T) {
	sim := New()
	if _, err := sim.NewNode("10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewNode("10.0.0.1"); err == nil {
		t.Fatal("duplicate node should fail")
	}
	if _, err := sim.NewNode(""); err == nil {
		t.Fatal("empty IP should fail")
	}
}

func TestStreamEcho(t *testing.T) {
	sim := New()
	srvNode, _ := sim.NewNode("10.0.0.2")
	cliNode, _ := sim.NewNode("10.0.0.1")

	_, err := srvNode.ListenStream(80, nil, func(c netapi.Conn, data []byte) {
		if data == nil {
			return
		}
		if err := c.Send(append([]byte("echo:"), data...)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	conn, err := cliNode.DialStream(netapi.Addr{IP: "10.0.0.2", Port: 80}, func(c netapi.Conn, data []byte) {
		if data != nil {
			got += string(data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if got != "echo:ping" {
		t.Fatalf("got %q", got)
	}
}

func TestStreamConnectionRefused(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	if _, err := a.DialStream(netapi.Addr{IP: "10.0.0.2", Port: 81}, func(netapi.Conn, []byte) {}); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestStreamCloseSignalsPeer(t *testing.T) {
	sim := New()
	srvNode, _ := sim.NewNode("10.0.0.2")
	cliNode, _ := sim.NewNode("10.0.0.1")
	closed := false
	_, err := srvNode.ListenStream(80, nil, func(c netapi.Conn, data []byte) {
		if data == nil {
			closed = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cliNode.DialStream(netapi.Addr{IP: "10.0.0.2", Port: 80}, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if !closed {
		t.Fatal("peer not notified of close")
	}
	if err := conn.Send([]byte("x")); err == nil {
		t.Fatal("send after close should fail")
	}
}

func TestListenerAcceptCallback(t *testing.T) {
	sim := New()
	srvNode, _ := sim.NewNode("10.0.0.2")
	cliNode, _ := sim.NewNode("10.0.0.1")
	accepted := 0
	l, err := srvNode.ListenStream(80, func(netapi.Conn) { accepted++ }, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cliNode.DialStream(netapi.Addr{IP: "10.0.0.2", Port: 80}, func(netapi.Conn, []byte) {}); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if accepted != 1 {
		t.Fatalf("accepted = %d", accepted)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cliNode.DialStream(netapi.Addr{IP: "10.0.0.2", Port: 80}, func(netapi.Conn, []byte) {}); err == nil {
		t.Fatal("dial after listener close should fail")
	}
}

func TestRunUntil(t *testing.T) {
	sim := New()
	n, _ := sim.NewNode("10.0.0.1")
	done := false
	n.After(3*time.Second, func() { done = true })
	if err := sim.RunUntil(func() bool { return done }, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Timeout path.
	n.After(100*time.Second, func() {})
	err := sim.RunUntil(func() bool { return false }, time.Second)
	if err == nil {
		t.Fatal("want timeout error")
	}
	// No-events path.
	sim2 := New()
	if err := sim2.RunUntil(func() bool { return false }, time.Second); err == nil {
		t.Fatal("want no-pending-events error")
	}
}

// TestPacketLossInjection pins that a fault plan with total loss drops
// every datagram and counts each one dropped.
func TestPacketLossInjection(t *testing.T) {
	sim := New(WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Loss: 1}}}))
	a, _ := sim.NewNode("10.0.0.1")
	b, _ := sim.NewNode("10.0.0.2")
	recv := 0
	bs, _ := b.OpenUDP(4000, func(netapi.Packet) { recv++ })
	as, _ := a.OpenUDP(0, func(netapi.Packet) {})
	for i := 0; i < 10; i++ {
		if err := as.Send(bs.LocalAddr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunToQuiescence()
	if recv != 0 {
		t.Fatalf("recv = %d with 100%% loss", recv)
	}
	if sim.PacketsDropped != 10 {
		t.Fatalf("dropped = %d", sim.PacketsDropped)
	}
}

// Property: identical seeds produce identical delivery timestamps —
// the simulator is deterministic.
func TestQuickDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		sim := New(WithSeed(seed))
		a, _ := sim.NewNode("10.0.0.1")
		b, _ := sim.NewNode("10.0.0.2")
		start := sim.Now()
		var stamps []time.Duration
		bs, _ := b.OpenUDP(4000, func(netapi.Packet) {
			stamps = append(stamps, sim.Now().Sub(start))
		})
		as, _ := a.OpenUDP(0, func(netapi.Packet) {})
		for i := 0; i < 5; i++ {
			if err := as.Send(bs.LocalAddr(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		sim.RunToQuiescence()
		return stamps
	}
	f := func(seed int64) bool {
		x, y := run(seed), run(seed)
		if len(x) != len(y) || len(x) != 5 {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: datagram payloads are isolated — mutating the sender's
// buffer after Send must not affect the delivered packet.
func TestPayloadIsolation(t *testing.T) {
	sim := New()
	a, _ := sim.NewNode("10.0.0.1")
	b, _ := sim.NewNode("10.0.0.2")
	var got []byte
	bs, _ := b.OpenUDP(4000, func(p netapi.Packet) { got = p.Data })
	as, _ := a.OpenUDP(0, func(netapi.Packet) {})
	buf := []byte("original")
	if err := as.Send(bs.LocalAddr(), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	sim.RunToQuiescence()
	if string(got) != "original" {
		t.Fatalf("got %q", got)
	}
}

func TestLatencyBounds(t *testing.T) {
	base, jitter := time.Millisecond, 2*time.Millisecond
	sim := New(WithLatency(base, jitter))
	a, _ := sim.NewNode("10.0.0.1")
	b, _ := sim.NewNode("10.0.0.2")
	start := sim.Now()
	var at time.Duration
	bs, _ := b.OpenUDP(4000, func(netapi.Packet) { at = sim.Now().Sub(start) })
	as, _ := a.OpenUDP(0, func(netapi.Packet) {})
	if err := as.Send(bs.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if at < base || at >= base+jitter {
		t.Fatalf("latency %v outside [%v, %v)", at, base, base+jitter)
	}
}
