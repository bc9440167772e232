package realnet_test

import (
	"sync"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

// deliveredPacket is the part of a delivery the batched and portable
// paths must agree on byte-for-byte.
type deliveredPacket struct {
	from    netapi.Addr
	to      netapi.Addr
	payload string
}

// runDeliverySequence blasts n ordered unicast datagrams plus one
// multicast fan-out through a fresh runtime and returns everything the
// receivers saw, in order. Used over both receive primitives to pin
// their equivalence.
func runDeliverySequence(t *testing.T, rt *realnet.Runtime, n int) (unicast []deliveredPacket, members [2][]deliveredPacket) {
	t.Helper()
	ledger := newLeaseLedger(t)

	recvNode, _ := rt.NewNode("10.0.0.5")
	done := make(chan struct{})
	sock, err := recvNode.OpenUDP(0, func(pkt netapi.Packet) {
		if pkt.Batch < 1 {
			t.Errorf("realnet delivery has Batch = %d, want >= 1", pkt.Batch)
		}
		unicast = append(unicast, deliveredPacket{pkt.From, pkt.To, string(pkt.Data)})
		if len(unicast) == n {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	group := netapi.Addr{IP: "239.255.255.253", Port: 427}
	memberNode, _ := rt.NewNode("10.0.0.6")
	var memberSocks []netapi.UDPSocket
	var memberDone [2]chan struct{}
	for i := 0; i < 2; i++ {
		i := i
		memberDone[i] = make(chan struct{})
		ms, err := memberNode.JoinGroup(group, func(pkt netapi.Packet) {
			members[i] = append(members[i], deliveredPacket{pkt.From, pkt.To, string(pkt.Data)})
			close(memberDone[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		memberSocks = append(memberSocks, ms)
	}

	sendNode, _ := rt.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cli.Send(sock.LocalAddr(), []byte{'u', byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Send(group, []byte("fan-out")); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan struct{}{done, memberDone[0], memberDone[1]} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("deliveries incomplete: %d/%d unicast, members %d/%d",
				len(unicast), n, len(members[0]), len(members[1]))
		}
	}

	// Tear down and require the lease ledger to return to its baseline:
	// a read loop holds a slab of whatever size the burst grew it to, and
	// every buffer of every slab must go back to the pool on close.
	_ = cli.Close()
	_ = sock.Close()
	for _, ms := range memberSocks {
		_ = ms.Close()
	}
	ledger.settle(0, "sockets closed")
	return unicast, members
}

// TestBatchPortableEquivalence pins the core contract of the recvmmsg
// primitive: same ordered deliveries, same real source addresses, same
// payloads, and a balanced lease ledger — the platform's receive
// primitive and the portable one must be indistinguishable to handlers.
// (On a portable build both runtimes read through the same primitive.)
func TestBatchPortableEquivalence(t *testing.T) {
	const n = 200
	batched, batchedM := runDeliverySequence(t, realnet.New(), n)
	portable, portableM := runDeliverySequence(t, realnet.NewPortable(), n)

	check := func(name string, got, want []deliveredPacket) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: batched saw %d deliveries, portable %d", name, len(got), len(want))
		}
		for i := range got {
			// Ports are ephemeral and differ between the two runs; the
			// IPs and payload order must match exactly.
			if got[i].payload != want[i].payload || got[i].from.IP != want[i].from.IP {
				t.Fatalf("%s delivery %d: batched %+v vs portable %+v", name, i, got[i], want[i])
			}
		}
	}
	check("unicast", batched, portable)
	check("member-0", batchedM[0], portableM[0])
	check("member-1", batchedM[1], portableM[1])

	// The From address is the sender's real source, not a placeholder:
	// loopback traffic must carry 127.0.0.1 and a nonzero ephemeral
	// port on both paths.
	for _, seq := range [][]deliveredPacket{batched, portable} {
		for _, d := range seq {
			if d.from.IP != "127.0.0.1" || d.from.Port == 0 {
				t.Fatalf("delivery carries From %+v, want real loopback source", d.from)
			}
		}
	}
}

// The platform receive primitive must hold the PR 5 allocation bound:
// reads land in slab-leased pooled buffers and dispatch inline.
func TestBatchedRecvPathAllocs(t *testing.T) {
	measureRecvAllocs(t, realnet.New())
}

// The portable primitive must hold the same bound — the CI no-batch leg
// runs the whole suite over it, and this pins its steady state in every
// build.
func TestPortableRecvPathAllocs(t *testing.T) {
	measureRecvAllocs(t, realnet.NewPortable())
}

func measureRecvAllocs(t *testing.T, rt *realnet.Runtime) {
	t.Helper()
	recvNode, _ := rt.NewNode("10.0.0.5")
	got := make(chan struct{}, 1)
	sock, err := recvNode.OpenUDP(0, func(pkt netapi.Packet) {
		got <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	sendNode, _ := rt.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dst := sock.LocalAddr()
	payload := []byte("service request frame")
	roundTrip := func() {
		if err := cli.Send(dst, payload); err != nil {
			t.Error(err)
		}
		<-got
	}
	for i := 0; i < 100; i++ {
		roundTrip() // warm the runtime, the pool and the slab
	}
	// Zero, not "a few": a lease flag that escaped to the heap cost one
	// allocation per datagram and hid under a bound of 3.
	if avg := testing.AllocsPerRun(200, roundTrip); avg > 0 {
		t.Fatalf("UDP send+recv path allocates %.1f/op, want 0", avg)
	}
}

// Multicast Send must not allocate per call: the member snapshot lands
// in a per-socket scratch slice and the sendmmsg vectors are reused
// across fan-outs. AllocsPerRun counts the whole process, so whenever
// the scheduler runs the four members' read loops inside the window
// (CPU contention does it) the bound covers the receive path too — which
// is how a lease flag that escaped once per datagram used to fail it.
func TestMulticastSendAllocs(t *testing.T) {
	rt := realnet.New()
	group := netapi.Addr{IP: "239.255.255.253", Port: 427}
	memberNode, _ := rt.NewNode("10.0.0.6")
	for i := 0; i < 4; i++ {
		ms, err := memberNode.JoinGroup(group, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
	}
	sendNode, _ := rt.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	payload := []byte("announce")
	send := func() {
		if err := cli.Send(group, payload); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 50; i++ {
		send() // warm the scratch slices to their high-water capacity
	}
	if avg := testing.AllocsPerRun(200, send); avg > 1 {
		t.Fatalf("multicast Send allocates %.1f/op, want <= 1", avg)
	}
}

// TestBatchedMulticastSendRace hammers concurrent multicast fan-outs
// while the group's membership churns — members join and close under
// the senders' feet. Run with -race in CI; the member snapshot, the
// per-socket send scratch and the sendmmsg vectors must all stay
// data-race free.
func TestBatchedMulticastSendRace(t *testing.T) {
	rt := realnet.New()
	group := netapi.Addr{IP: "239.255.255.250", Port: 1900}
	memberNode, _ := rt.NewNode("10.0.0.6")

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Senders: several sockets fanning out to the same group at once.
	for i := 0; i < 4; i++ {
		node, _ := rt.NewNode("10.0.0.1")
		cli, err := node.OpenUDP(0, func(netapi.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func(s netapi.UDPSocket) {
			defer wg.Done()
			payload := []byte("burst")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Send(group, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(cli)
	}

	// Churner: membership grows and shrinks continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var live []netapi.UDPSocket
		defer func() {
			for _, s := range live {
				_ = s.Close()
			}
		}()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s, err := memberNode.JoinGroup(group, func(netapi.Packet) {})
			if err != nil {
				t.Error(err)
				return
			}
			live = append(live, s)
			if len(live) > 6 {
				_ = live[0].Close()
				live = live[1:]
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
