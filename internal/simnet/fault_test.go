package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"starlink/internal/netapi"
)

// faultWorkload drives a small mixed workload over a fresh simulator:
// two senders flooding one multicast group and one unicast receiver,
// plus a stream exchange — enough traffic that loss, delay, reorder,
// duplication and partition rules all get something to chew on.
// It returns the net (quiesced) for trace inspection.
func faultWorkload(t *testing.T, seed int64, plan *netapi.FaultPlan, opts ...Option) *Net {
	t.Helper()
	n := New(append([]Option{WithSeed(seed), WithEventTrace(), WithFaults(plan)}, opts...)...)

	recvNode, _ := n.NewNode("10.0.0.9")
	got := 0
	if _, err := recvNode.JoinGroup(netapi.Addr{IP: "239.1.1.1", Port: 4000}, func(p netapi.Packet) {
		got++
	}); err != nil {
		t.Fatal(err)
	}
	uni, err := recvNode.OpenUDP(5000, func(p netapi.Packet) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	var chunks []string
	if _, err := recvNode.ListenStream(6000, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			chunks = append(chunks, string(data))
			_ = c.Send([]byte("ack:" + string(data)))
		}
	}); err != nil {
		t.Fatal(err)
	}

	for i, ip := range []string{"10.0.0.1", "10.0.0.2"} {
		nd, _ := n.NewNode(ip)
		s, err := nd.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			at := time.Duration(j) * time.Millisecond
			payload := []byte(fmt.Sprintf("m-%d-%d", i, j))
			nd.After(at, func() {
				_ = s.Send(netapi.Addr{IP: "239.1.1.1", Port: 4000}, payload)
				_ = s.Send(uni.LocalAddr(), payload)
			})
		}
		conn, err := nd.DialStream(netapi.Addr{IP: "10.0.0.9", Port: 6000}, func(netapi.Conn, []byte) {})
		if err == nil {
			for j := 0; j < 3; j++ {
				payload := []byte(fmt.Sprintf("s-%d-%d", i, j))
				nd.After(time.Duration(j)*2*time.Millisecond, func() { _ = conn.Send(payload) })
			}
		}
	}
	n.Run(time.Second)
	n.RunToQuiescence()
	return n
}

// plans exercised by the determinism tests, one per fault type.
func faultPlans() map[string]*netapi.FaultPlan {
	return map[string]*netapi.FaultPlan{
		"loss":      {Rules: []netapi.FaultRule{{Proto: "udp", Loss: 0.3}}},
		"delay":     {Rules: []netapi.FaultRule{{Delay: 2 * time.Millisecond, DelayJitter: time.Millisecond}}},
		"reorder":   {Rules: []netapi.FaultRule{{Proto: "udp", Reorder: 0.4}}},
		"duplicate": {Rules: []netapi.FaultRule{{Proto: "udp", Duplicate: 0.4, DuplicateDelay: 500 * time.Microsecond}}},
		"partition": {Rules: []netapi.FaultRule{{From: "10.0.0.1", To: "10.0.0.9", Start: 2 * time.Millisecond, End: 6 * time.Millisecond, Partition: true}}},
		"corrupt":   {Rules: []netapi.FaultRule{{Proto: "udp", Corrupt: 0.4}}},
		"truncate":  {Rules: []netapi.FaultRule{{Proto: "udp", Truncate: 0.4}}},
	}
}

// TestFaultDamage pins what corrupt and truncate do to a datagram sent
// to a multicast group whose one member the rule names: that member
// receives it with one byte flipped, or cut short, and the trace says
// so; the other member and the sender's buffer keep the bytes sent.
func TestFaultDamage(t *testing.T) {
	for _, tc := range []struct {
		rule netapi.FaultRule
		kind string
		ok   func(got []byte) bool
	}{
		{netapi.FaultRule{To: "10.0.0.9", Corrupt: 1}, "corrupt", func(got []byte) bool {
			diff := 0
			for i := range got {
				if got[i] != "datagram"[i] {
					diff++
				}
			}
			return len(got) == len("datagram") && diff == 1
		}},
		{netapi.FaultRule{To: "10.0.0.9", Truncate: 1}, "truncate", func(got []byte) bool {
			return len(got) < len("datagram") && strings.HasPrefix("datagram", string(got))
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			n := New(WithSeed(5), WithEventTrace(), WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{tc.rule}}))
			group := netapi.Addr{IP: "239.1.1.1", Port: 4000}
			got := map[string][]byte{}
			for _, ip := range []string{"10.0.0.8", "10.0.0.9"} {
				nd, _ := n.NewNode(ip)
				if _, err := nd.JoinGroup(group, func(p netapi.Packet) { got[ip] = append([]byte(nil), p.Data...) }); err != nil {
					t.Fatal(err)
				}
			}
			nd, _ := n.NewNode("10.0.0.1")
			s, err := nd.OpenUDP(0, func(netapi.Packet) {})
			if err != nil {
				t.Fatal(err)
			}
			sent := []byte("datagram")
			if err := s.Send(group, sent); err != nil {
				t.Fatal(err)
			}
			n.RunToQuiescence()
			if string(sent) != "datagram" || string(got["10.0.0.8"]) != "datagram" {
				t.Fatalf("sender holds %q, other member got %q: want both untouched", sent, got["10.0.0.8"])
			}
			if !tc.ok(got["10.0.0.9"]) {
				t.Errorf("named member got %q", got["10.0.0.9"])
			}
			if !strings.Contains(strings.Join(n.TraceLines(), "\n"), " "+tc.kind) {
				t.Errorf("trace lacks a %s mark:\n%s", tc.kind, strings.Join(n.TraceLines(), "\n"))
			}
		})
	}
}

// TestFaultDeterminism pins the determinism contract per fault type:
// same seed + same plan ⇒ byte-identical event trace; a different
// seed ⇒ a different trace (the faults are actually random).
func TestFaultDeterminism(t *testing.T) {
	for name, plan := range faultPlans() {
		t.Run(name, func(t *testing.T) {
			a := faultWorkload(t, 42, plan)
			b := faultWorkload(t, 42, plan)
			la, lb := a.TraceLines(), b.TraceLines()
			if strings.Join(la, "\n") != strings.Join(lb, "\n") {
				t.Fatalf("same seed, different traces (%d vs %d lines)", len(la), len(lb))
			}
			if a.TraceHash() != b.TraceHash() {
				t.Fatalf("same lines but different hashes: %x vs %x", a.TraceHash(), b.TraceHash())
			}
			if a.TraceHash() == 0 {
				t.Fatal("trace hash is zero — nothing was recorded")
			}
			c := faultWorkload(t, 43, plan)
			if c.TraceHash() == a.TraceHash() {
				t.Fatalf("%s: seeds 42 and 43 produced identical traces", name)
			}
		})
	}
}

// TestFaultPlanOffIdentical pins "plan off ⇒ no behavior change": a
// nil plan, an empty plan, and a plan whose rules never match all
// produce byte-identical traces — installing the fault plane must not
// perturb the jitter RNG or the event schedule.
func TestFaultPlanOffIdentical(t *testing.T) {
	base := faultWorkload(t, 7, nil)
	for name, plan := range map[string]*netapi.FaultPlan{
		"empty":   {},
		"nomatch": {Rules: []netapi.FaultRule{{From: "172.16.0.1", Loss: 1, Delay: time.Second, Duplicate: 1, Partition: false}}},
	} {
		got := faultWorkload(t, 7, plan)
		if strings.Join(got.TraceLines(), "\n") != strings.Join(base.TraceLines(), "\n") {
			t.Fatalf("%s plan changed the trace", name)
		}
	}
}

// TestFaultIsolation pins that a plan scoped to one endpoint pair
// leaves every other pair's deliveries byte-identical: fault decisions
// draw from a dedicated RNG, so unrelated traffic keeps its exact
// no-plan timing.
func TestFaultIsolation(t *testing.T) {
	base := faultWorkload(t, 11, nil)
	scoped := &netapi.FaultPlan{Rules: []netapi.FaultRule{
		{From: "10.0.0.1", To: "10.0.0.9", Proto: "udp", Loss: 0.5, Delay: time.Millisecond, Duplicate: 0.5},
	}}
	got := faultWorkload(t, 11, scoped)
	filter := func(lines []string) []string {
		var out []string
		for _, l := range lines {
			if strings.Contains(l, "10.0.0.1:") {
				continue // the faulted sender's traffic
			}
			out = append(out, l)
		}
		return out
	}
	a, b := filter(base.TraceLines()), filter(got.TraceLines())
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("faults on 10.0.0.1->10.0.0.9 perturbed other pairs:\nbase %d lines, got %d lines", len(a), len(b))
	}
}

// TestFaultEffects sanity-checks that each fault type actually does
// something: loss drops, duplication re-delivers, partitions cut the
// pair during their window and heal after.
func TestFaultEffects(t *testing.T) {
	run := func(plan *netapi.FaultPlan) (*Net, map[string]int) {
		n := New(WithSeed(3), WithEventTrace(), WithFaults(plan), WithLatency(200*time.Microsecond, 0))
		recvNode, _ := n.NewNode("10.0.0.9")
		counts := map[string]int{}
		sock, err := recvNode.OpenUDP(5000, func(p netapi.Packet) { counts["recv"]++ })
		if err != nil {
			t.Fatal(err)
		}
		send, _ := n.NewNode("10.0.0.1")
		s, err := send.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			at := time.Duration(j) * 100 * time.Microsecond
			send.After(at, func() { _ = s.Send(sock.LocalAddr(), []byte("x")) })
		}
		n.RunToQuiescence()
		for _, l := range n.TraceLines() {
			f := strings.Fields(l)
			counts[strings.Join(f[4:], " ")]++
		}
		return n, counts
	}

	n, c := run(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Loss: 1}}})
	if c["recv"] != 0 || c["drop loss"] != 100 || n.PacketsDropped != 100 {
		t.Fatalf("total loss plan: %v, %d counted dropped: want every datagram dropped and counted", c, n.PacketsDropped)
	}
	_, c = run(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Loss: 0.5}}})
	if c["drop loss"] == 0 || c["recv"] == 0 || c["recv"]+c["drop loss"] != 100 {
		t.Fatalf("loss plan: %v", c)
	}
	_, c = run(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Duplicate: 0.5}}})
	if c["dup"] == 0 || c["recv"] != 100+c["dup"] {
		t.Fatalf("duplicate plan: %v", c)
	}
	_, c = run(&netapi.FaultPlan{Rules: []netapi.FaultRule{
		{Start: 2 * time.Millisecond, End: 6 * time.Millisecond, Partition: true},
	}})
	// 100 sends at 100µs spacing: sends in [2ms,6ms) are cut — 40 of
	// them — and the rest deliver (zero jitter keeps this exact).
	if c["drop partition"] != 40 || c["recv"] != 60 {
		t.Fatalf("partition plan: %v", c)
	}
}

// TestFaultReorderOvertakes pins that a reorder hold actually lets a
// later datagram overtake an earlier one on the same pair.
func TestFaultReorderOvertakes(t *testing.T) {
	n := New(WithSeed(1), WithLatency(200*time.Microsecond, 0),
		WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{
			// End the window right after the first send so exactly the
			// first datagram is held.
			{End: 50 * time.Microsecond, Reorder: 1, ReorderDelay: time.Millisecond},
		}}))
	recvNode, _ := n.NewNode("10.0.0.9")
	var order []string
	sock, err := recvNode.OpenUDP(5000, func(p netapi.Packet) { order = append(order, string(p.Data)) })
	if err != nil {
		t.Fatal(err)
	}
	send, _ := n.NewNode("10.0.0.1")
	s, err := send.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Send(sock.LocalAddr(), []byte("first"))
	send.After(100*time.Microsecond, func() { _ = s.Send(sock.LocalAddr(), []byte("second")) })
	n.RunToQuiescence()
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("want second overtaking first, got %v", order)
	}
}

// TestLeasedDeliveryBalances pins the leased-delivery mode: handlers
// that never take the lease leak nothing (the runtime releases), and a
// handler that does take it owns a private copy it must release.
func TestLeasedDeliveryBalances(t *testing.T) {
	before := netapi.LeasedBuffers()
	n := New(WithSeed(5), WithLeasedDelivery(),
		WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Duplicate: 1}}}))
	recvNode, _ := n.NewNode("10.0.0.9")
	var taken []*netapi.Buffer
	var seen []string
	sock, err := recvNode.OpenUDP(5000, func(p netapi.Packet) {
		seen = append(seen, string(p.Data))
		if len(taken) == 0 { // take exactly one lease, hold it past the callback
			if b := p.TakeLease(); b != nil {
				taken = append(taken, b)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	send, _ := n.NewNode("10.0.0.1")
	s, err := send.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Send(sock.LocalAddr(), []byte("payload"))
	n.RunToQuiescence()
	if len(seen) != 2 {
		t.Fatalf("want original + duplicate, got %v", seen)
	}
	if len(taken) != 1 {
		t.Fatalf("handler took %d leases", len(taken))
	}
	if got := netapi.LeasedBuffers() - before; got != 1 {
		t.Fatalf("outstanding leases after run: %d (want 1: the taken one)", got)
	}
	taken[0].Release()
	if got := netapi.LeasedBuffers() - before; got != 0 {
		t.Fatalf("outstanding leases after release: %d", got)
	}
}

// TestFaultStreamPartitionHeals pins stream semantics under a healing
// partition: chunks sent during the window arrive, in order, only
// after the heal.
func TestFaultStreamPartitionHeals(t *testing.T) {
	n := New(WithSeed(9), WithLatency(200*time.Microsecond, 0),
		WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{
			{Proto: "stream", Start: 0, End: 5 * time.Millisecond, Partition: true},
		}}))
	srvNode, _ := n.NewNode("10.0.0.9")
	type arrival struct {
		data string
		at   time.Duration
	}
	epoch := n.Now()
	var got []arrival
	if _, err := srvNode.ListenStream(6000, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			got = append(got, arrival{string(data), n.Now().Sub(epoch)})
		}
	}); err != nil {
		t.Fatal(err)
	}
	cli, _ := n.NewNode("10.0.0.1")
	conn, err := cli.DialStream(netapi.Addr{IP: "10.0.0.9", Port: 6000}, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Send([]byte("a"))
	cli.After(time.Millisecond, func() { _ = conn.Send([]byte("b")) })
	n.RunToQuiescence()
	if len(got) != 2 || got[0].data != "a" || got[1].data != "b" {
		t.Fatalf("want ordered a,b after heal, got %v", got)
	}
	for _, a := range got {
		if a.at < 5*time.Millisecond {
			t.Fatalf("chunk %q arrived at %v, before the 5ms heal", a.data, a.at)
		}
	}
}

// TestFaultStreamRefusedWhenUnhealing pins that dialing across a
// partition with no End fails fast instead of hanging.
func TestFaultStreamRefusedWhenUnhealing(t *testing.T) {
	n := New(WithSeed(2), WithFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{
		{From: "10.0.0.1", To: "10.0.0.9", Partition: true},
	}}))
	srvNode, _ := n.NewNode("10.0.0.9")
	if _, err := srvNode.ListenStream(6000, nil, func(netapi.Conn, []byte) {}); err != nil {
		t.Fatal(err)
	}
	cli, _ := n.NewNode("10.0.0.1")
	if _, err := cli.DialStream(netapi.Addr{IP: "10.0.0.9", Port: 6000}, func(netapi.Conn, []byte) {}); err == nil {
		t.Fatal("dial across an unhealing partition succeeded")
	}
}

// TestInstallFaultsMidRun pins that installing a plan mid-run anchors
// its windows at the install instant and that removal restores clean
// delivery.
func TestInstallFaultsMidRun(t *testing.T) {
	n := New(WithSeed(4), WithLatency(200*time.Microsecond, 0))
	recvNode, _ := n.NewNode("10.0.0.9")
	got := 0
	sock, err := recvNode.OpenUDP(5000, func(netapi.Packet) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	send, _ := n.NewNode("10.0.0.1")
	s, err := send.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Send(sock.LocalAddr(), []byte("x"))
	n.RunToQuiescence()
	if got != 1 {
		t.Fatalf("clean delivery: got %d", got)
	}
	n.InstallFaults(&netapi.FaultPlan{Rules: []netapi.FaultRule{{Partition: true}}})
	_ = s.Send(sock.LocalAddr(), []byte("x"))
	n.RunToQuiescence()
	if got != 1 {
		t.Fatalf("partition installed mid-run did not cut delivery: got %d", got)
	}
	n.InstallFaults(nil)
	_ = s.Send(sock.LocalAddr(), []byte("x"))
	n.RunToQuiescence()
	if got != 2 {
		t.Fatalf("removing the plan did not restore delivery: got %d", got)
	}
}
