package netapi_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
	"starlink/internal/simnet"
)

// runtimeUnderTest is what the node-contract table needs from a runtime:
// a way to make one, and a probe for the one thing the two runtimes show
// differently — whether a node's endpoints and timers share a dispatch
// domain.
type runtimeUnderTest struct {
	name string
	new  func() netapi.Runtime
	// streamPort is the port the gate probe listens on: 0 where the
	// listener reports the port it was given.
	streamPort int
	// independent reports whether two endpoints opened through view(n),
	// and a timer of n, dispatch independently of one another (true) or
	// strictly one at a time (false); anything in between fails the test.
	independent func(t *testing.T, view func(netapi.Node) netapi.Node) bool
}

var runtimesUnderTest = []runtimeUnderTest{
	{"realnet", func() netapi.Runtime { return realnet.New() }, 0, realnetIndependent},
	{"simnet", func() netapi.Runtime { return simnet.New(simnet.WithLatency(time.Millisecond, 0)) }, 9000, simnetIndependent},
}

// realnetIndependent holds endpoint A's handler open and watches whether
// endpoint B's handler and a timer of the node get to run meanwhile.
func realnetIndependent(t *testing.T, view func(netapi.Node) netapi.Node) bool {
	t.Helper()
	rt := realnet.New()
	n, _ := rt.NewNode("10.0.0.5")
	defer n.Close()
	v := view(n)
	var ran atomic.Int32 // B's handler and the timer, while A is held
	inA, leftA := make(chan struct{}), make(chan int32, 1)
	a, err := v.OpenUDP(0, func(netapi.Packet) {
		close(inA)
		for deadline := time.Now().Add(300 * time.Millisecond); ran.Load() < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		leftA <- ran.Load()
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.OpenUDP(0, func(netapi.Packet) { ran.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(a.LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	<-inA
	v.After(0, func() { ran.Add(1) })
	if err := cli.Send(b.LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	switch during := <-leftA; during {
	case 0:
		return false
	case 2:
		return true
	default:
		t.Fatalf("%d of 2 callbacks overlapped a held endpoint: neither serial nor independent", during)
		return false
	}
}

// simnetIndependent lands four deliveries and a timer on one virtual
// instant. One domain runs them in creation order under every seed;
// private domains interleave by the seeded tiebreak, so some seed
// reorders them.
func simnetIndependent(t *testing.T, view func(netapi.Node) netapi.Node) bool {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		sim := simnet.New(simnet.WithSeed(seed), simnet.WithLatency(0, 0))
		n, _ := sim.NewNode("10.0.0.5")
		v := view(n)
		var order []int
		var socks []netapi.UDPSocket
		for i := 0; i < 4; i++ {
			i := i
			s, err := v.OpenUDP(0, func(netapi.Packet) { order = append(order, i) })
			if err != nil {
				t.Fatal(err)
			}
			socks = append(socks, s)
		}
		peer, _ := sim.NewNode("10.0.0.1")
		cli, _ := peer.OpenUDP(0, func(netapi.Packet) {})
		for _, s := range socks {
			if err := cli.Send(s.LocalAddr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		v.After(0, func() { order = append(order, 4) })
		sim.RunToQuiescence()
		if len(order) != 5 {
			t.Fatalf("seed %d: %d of 5 callbacks ran", seed, len(order))
		}
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			return true
		}
	}
	return false
}

// pausesAndResumes checks that a datagram socket and a stream listener
// opened through v deliver nothing while the gate is blocked and
// everything, in order, once it reopens.
func pausesAndResumes(t *testing.T, r runtimeUnderTest, view func(netapi.Node, *netapi.FlowGate) netapi.Node) {
	t.Helper()
	rt := r.new()
	n, _ := rt.NewNode("10.0.0.5")
	defer n.Close()
	gate := netapi.NewFlowGate()
	v := view(n, gate)
	var mu sync.Mutex
	var got []string
	record := func(data []byte) {
		mu.Lock()
		got = append(got, string(data))
		mu.Unlock()
	}
	seen := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	sock, err := v.OpenUDP(0, func(p netapi.Packet) { record(p.Data) })
	if err != nil {
		t.Fatal(err)
	}
	ln, err := v.ListenStream(r.streamPort, nil, func(_ netapi.Conn, chunk []byte) {
		if chunk != nil {
			record(chunk)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lnAddr := netapi.Addr{IP: n.IP(), Port: r.streamPort}
	if a, ok := ln.(interface{ Addr() netapi.Addr }); ok {
		lnAddr = a.Addr()
	}
	peer, _ := rt.NewNode("10.0.0.1")
	defer peer.Close()
	cli, err := peer.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := peer.DialStream(lnAddr, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}

	gate.Pause()
	rt.Run(20 * time.Millisecond) // let real read loops reach the gate
	for _, d := range []string{"d0", "d1", "d2"} {
		if err := cli.Send(sock.LocalAddr(), []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Send([]byte("stream")); err != nil {
		t.Fatal(err)
	}
	rt.Run(50 * time.Millisecond)
	if k := seen(); k != 0 {
		t.Fatalf("%d deliveries while the gate was blocked: %v", k, got)
	}
	gate.Resume()
	if err := rt.RunUntil(func() bool { return seen() == 4 }, 3*time.Second); err != nil {
		t.Fatalf("after resume: %v (got %v)", err, got)
	}
	var datagrams []string
	for _, g := range got {
		if g != "stream" {
			datagrams = append(datagrams, g)
		}
	}
	if fmt.Sprint(datagrams) != "[d0 d1 d2]" {
		t.Errorf("datagrams held across the pause arrived as %v, want [d0 d1 d2]", datagrams)
	}
}

// timerContract checks a Timer made through v: Stop keeps it from
// firing; Reset re-arms it, also from inside its own callback; and an
// arm that a later Reset or Stop replaced never runs the callback for
// the arm after it. On the simulator a replaced arm never fires at all;
// a real arm may fire in the instant before it is replaced, so there the
// check is that none of the fires already on their way arrive late.
func timerContract(t *testing.T, r runtimeUnderTest, view func(netapi.Node, *netapi.FlowGate) netapi.Node) {
	t.Helper()
	rt := r.new()
	n, _ := rt.NewNode("10.0.0.5")
	defer n.Close()
	var fired atomic.Int32
	var again atomic.Bool
	var tm netapi.Timer
	tm = view(n, netapi.NewFlowGate()).NewTimer(func() {
		fired.Add(1)
		if again.CompareAndSwap(true, false) {
			tm.Reset(time.Millisecond)
		}
	})
	settle := func(want int32, what string) {
		t.Helper()
		if err := rt.RunUntil(func() bool { return fired.Load() >= want }, 3*time.Second); err != nil {
			t.Fatalf("%s: %d fires, want %d: %v", what, fired.Load(), want, err)
		}
		rt.Run(50 * time.Millisecond)
		if got := fired.Load(); got != want {
			t.Fatalf("%s: %d fires, want %d", what, got, want)
		}
	}

	tm.Reset(50 * time.Millisecond)
	tm.Stop()
	settle(0, "Stop")
	tm.Reset(time.Hour)
	tm.Reset(time.Millisecond)
	settle(1, "Reset re-arms")
	for i := 0; i < 200; i++ {
		tm.Reset(0)
		tm.Reset(time.Hour)
	}
	tm.Stop()
	rt.Run(30 * time.Millisecond)
	if r.name == "simnet" && fired.Load() != 1 {
		t.Fatalf("replaced arms fired %d times", fired.Load()-1)
	}
	settle(fired.Load(), "replaced arms")
	again.Store(true)
	tm.Reset(time.Millisecond)
	settle(fired.Load()+2, "Reset from the callback")
}

// sendContract checks that Send has written or copied data by the time
// it returns, which is what lets a caller compose every message into one
// reused buffer: the buffer is overwritten right after each Send, and
// the peers still receive what was sent — unicast, multicast fan-out,
// and on a stream a send that waited its turn behind a writer the peer
// is not reading (realnet's blocked write; the simulator never blocks a
// writer). One Send writes at a time: the second returns only after the
// first has written.
func sendContract(t *testing.T, r runtimeUnderTest) {
	rt := r.new()
	n, _ := rt.NewNode("10.0.0.5")
	defer n.Close()
	peer, _ := rt.NewNode("10.0.0.1")
	defer peer.Close()
	var mu sync.Mutex
	var got []string
	var streamed []byte
	record := func(p netapi.Packet) {
		mu.Lock()
		got = append(got, string(p.Data))
		mu.Unlock()
	}
	overwrite := func(b []byte) {
		for i := range b {
			b[i] = 'X'
		}
	}
	uni, err := peer.OpenUDP(0, record)
	if err != nil {
		t.Fatal(err)
	}
	group := netapi.Addr{IP: "239.7.7.7", Port: 7007}
	for _, member := range []netapi.Node{n, peer} {
		if _, err := member.JoinGroup(group, record); err != nil {
			t.Fatal(err)
		}
	}
	sock, err := n.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	var sent []string
	for _, to := range []netapi.Addr{uni.LocalAddr(), group} {
		b := []byte("datagram to " + to.String())
		if err := sock.Send(to, b); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, string(b))
		overwrite(b)
	}
	wantDatagrams := []string{sent[0], sent[1], sent[1]} // two group members
	sort.Strings(wantDatagrams)

	blocking := r.name == "realnet"
	big := 1 << 10
	if blocking {
		big = 32 << 20 // past what the loopback socket buffers absorb
	}
	entered, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ln, err := peer.ListenStream(r.streamPort, nil, func(_ netapi.Conn, chunk []byte) {
		if chunk == nil {
			return
		}
		if blocking {
			once.Do(func() { close(entered) })
			<-hold
		}
		mu.Lock()
		streamed = append(streamed[:0], streamed[max(0, len(streamed)-64):]...)
		streamed = append(streamed, chunk...)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lnAddr := netapi.Addr{IP: peer.IP(), Port: r.streamPort}
	if a, ok := ln.(interface{ Addr() netapi.Addr }); ok {
		lnAddr = a.Addr()
	}
	conn, err := n.DialStream(lnAddr, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := make(chan error, 1)
	if blocking {
		go func() { first <- conn.Send(make([]byte, big)) }()
		<-entered // the first send is writing, and nobody reads
	} else {
		first <- conn.Send(make([]byte, big))
	}
	queued := []byte("queued stream bytes")
	want := string(queued)
	second := make(chan error, 1)
	sendQueued := func() {
		err := conn.Send(queued)
		overwrite(queued)
		second <- err
	}
	if !blocking {
		sendQueued()
	} else {
		go sendQueued()
		select {
		case <-second:
			t.Fatal("a stream send returned while the send before it was still writing to a peer that read nothing")
		case <-time.After(50 * time.Millisecond):
		}
	}
	close(hold)
	if err := rt.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3 && strings.HasSuffix(string(streamed), want)
	}, 10*time.Second); err != nil {
		t.Fatalf("datagrams %q, stream tail %q: %v", got, streamed, err)
	}
	for _, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(wantDatagrams) {
		t.Errorf("peers received %q, want %q", got, wantDatagrams)
	}
}

// TestNodeContract is the node contract, run against both runtimes: a
// node's own endpoints and timers never overlap; endpoints opened
// through Detach do; endpoints opened through Gated pause and resume
// with the gate; the two compose in either order; a node's timers
// re-arm, stop and never fire for an arm they no longer have; a wrapper
// that only embeds a Node loses none of it; and Send is done with its
// data when it returns.
func TestNodeContract(t *testing.T) {
	type wrapper struct{ netapi.Node }
	for _, r := range runtimesUnderTest {
		t.Run(r.name, func(t *testing.T) {
			t.Run("Send", func(t *testing.T) { sendContract(t, r) })
			for _, tc := range []struct {
				name        string
				view        func(netapi.Node, *netapi.FlowGate) netapi.Node
				independent bool
				gated       bool
			}{
				{"node", func(n netapi.Node, _ *netapi.FlowGate) netapi.Node { return n }, false, false},
				{"Gated(n, nil)", func(n netapi.Node, _ *netapi.FlowGate) netapi.Node { return netapi.Gated(n, nil) }, false, false},
				{"Detach", func(n netapi.Node, _ *netapi.FlowGate) netapi.Node { return netapi.Detach(n) }, true, false},
				{"Gated", func(n netapi.Node, g *netapi.FlowGate) netapi.Node { return netapi.Gated(n, g) }, false, true},
				{"Gated(Detach)", func(n netapi.Node, g *netapi.FlowGate) netapi.Node { return netapi.Gated(netapi.Detach(n), g) }, true, true},
				{"Detach(Gated)", func(n netapi.Node, g *netapi.FlowGate) netapi.Node { return netapi.Detach(netapi.Gated(n, g)) }, true, true},
				{"wrapped", func(n netapi.Node, g *netapi.FlowGate) netapi.Node {
					return netapi.Gated(wrapper{netapi.Detach(wrapper{n})}, g)
				}, true, true},
			} {
				t.Run(tc.name, func(t *testing.T) {
					gate := netapi.NewFlowGate() // open: dispatch only
					got := r.independent(t, func(n netapi.Node) netapi.Node { return tc.view(n, gate) })
					if got != tc.independent {
						t.Errorf("endpoints dispatch independently = %v, want %v", got, tc.independent)
					}
					if tc.gated {
						pausesAndResumes(t, r, tc.view)
					}
					timerContract(t, r, tc.view)
				})
			}
		})
	}
}
