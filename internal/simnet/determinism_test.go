package simnet_test

import (
	"fmt"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/simnet"
)

// ingestTrace drives one deterministic fan-in: `endpoints` detached
// sockets on one receiver node, one sender blasting a datagram at each
// of them in creation order with zero latency, so every delivery lands
// on the same virtual instant and the order is decided purely by the
// seeded per-domain tiebreak. It returns the delivery order.
func ingestTrace(t *testing.T, seed int64, endpoints int) []int {
	t.Helper()
	sim := simnet.New(simnet.WithSeed(seed), simnet.WithLatency(0, 0))
	recvNode, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	dn := netapi.Detach(recvNode)
	var trace []int
	socks := make([]netapi.UDPSocket, endpoints)
	for i := 0; i < endpoints; i++ {
		i := i
		sock, err := dn.OpenUDP(0, func(netapi.Packet) { trace = append(trace, i) })
		if err != nil {
			t.Fatal(err)
		}
		socks[i] = sock
	}
	sendNode, _ := sim.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range socks {
		if err := cli.Send(s.LocalAddr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunToQuiescence()
	if len(trace) != endpoints {
		t.Fatalf("delivered %d of %d", len(trace), endpoints)
	}
	return trace
}

// The per-endpoint model keeps the simulator deterministic: the same
// seed yields the same event trace, run after run.
func TestPerEndpointOrderDeterministic(t *testing.T) {
	const endpoints = 12
	for _, seed := range []int64{1, 7, 42} {
		a := ingestTrace(t, seed, endpoints)
		b := ingestTrace(t, seed, endpoints)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d not deterministic:\n  %v\n  %v", seed, a, b)
		}
	}
}

// Distinct seeds interleave distinct endpoints differently at the same
// virtual instant — the seeded modelling of parallel per-endpoint
// dispatch. (Same-endpoint FIFO order is pinned separately below.)
func TestPerEndpointOrderVariesWithSeed(t *testing.T) {
	const endpoints = 12
	a := ingestTrace(t, 1, endpoints)
	b := ingestTrace(t, 2, endpoints)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatalf("seeds 1 and 2 produced identical interleavings: %v", a)
	}
}

// Deliveries to ONE endpoint keep send order even at identical virtual
// instants: the tiebreak is per domain, never within it.
func TestSameEndpointFIFOAtSameInstant(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(3), simnet.WithLatency(0, 0))
	recvNode, _ := sim.NewNode("10.0.0.5")
	var got []byte
	sock, err := netapi.Detach(recvNode).OpenUDP(0, func(pkt netapi.Packet) {
		got = append(got, pkt.Data[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	sendNode, _ := sim.NewNode("10.0.0.1")
	cli, _ := sendNode.OpenUDP(0, func(netapi.Packet) {})
	for i := 0; i < 32; i++ {
		if err := cli.Send(sock.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunToQuiescence()
	if len(got) != 32 {
		t.Fatalf("delivered %d of 32", len(got))
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("delivery %d carried payload %d: same-endpoint FIFO broken", i, b)
		}
	}
}

// Timers of one node and its undetached endpoints share the node's
// root domain under virtual time too: a component's timer scheduled at
// the same instant as its socket delivery keeps a deterministic order.
func TestNodeRootDomainSharedWithTimers(t *testing.T) {
	for run := 0; run < 2; run++ {
		sim := simnet.New(simnet.WithSeed(9), simnet.WithLatency(0, 0))
		nd, _ := sim.NewNode("10.0.0.1")
		var order []string
		sock, err := nd.OpenUDP(0, func(netapi.Packet) { order = append(order, "packet") })
		if err != nil {
			t.Fatal(err)
		}
		nd.After(0, func() { order = append(order, "timer") })
		self, _ := sim.NewNode("10.0.0.2")
		cli, _ := self.OpenUDP(0, func(netapi.Packet) {})
		if err := cli.Send(sock.LocalAddr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		sim.Run(time.Second)
		if len(order) != 2 {
			t.Fatalf("run %d: saw %v", run, order)
		}
	}
}
