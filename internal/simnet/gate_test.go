package simnet_test

import (
	"fmt"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/simnet"
)

// gateTrace runs one deterministic pause/resume scenario: a gated UDP
// receiver whose handler pauses the gate after the third packet and
// schedules a timer-driven resume; the sender blasts eight payloads
// up front. The trace records every delivery (payload and virtual
// timestamp) plus the pause/resume markers, so it captures exactly
// which packets rode out the pause parked in the simulator.
func gateTrace(t *testing.T, seed int64) []string {
	t.Helper()
	sim := simnet.New(simnet.WithSeed(seed), simnet.WithLatency(time.Millisecond, 0))
	recvNode, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	gate := netapi.NewFlowGate()
	gated := netapi.Gated(recvNode, gate)

	var trace []string
	start := sim.Now()
	stamp := func(ev string) {
		trace = append(trace, fmt.Sprintf("%s@%s", ev, sim.Now().Sub(start)))
	}
	seen := 0
	sock, err := gated.OpenUDP(0, func(p netapi.Packet) {
		seen++
		stamp(string(p.Data))
		if seen == 3 {
			stamp("pause")
			gate.Pause()
			recvNode.After(10*time.Millisecond, func() {
				stamp("resume")
				gate.Resume()
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	sendNode, _ := sim.NewNode("10.0.0.1")
	cli, err := sendNode.OpenUDP(0, func(netapi.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := cli.Send(sock.LocalAddr(), []byte{'p', '0' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunToQuiescence()
	if sim.PacketsDeferred == 0 {
		t.Fatal("no deliveries were parked behind the blocked gate")
	}
	return trace
}

// The gate pause defers deliveries instead of dropping them, the
// parked packets replay in order at the resume instant, and the whole
// trace is a pure function of the latency model — identical across
// seeds because zero jitter leaves nothing for the seed to decide.
func TestGatePauseResumeTracePinned(t *testing.T) {
	want := []string{
		"p0@1ms", "p1@1ms", "p2@1ms", "pause@1ms",
		"resume@11ms",
		"p3@11ms", "p4@11ms", "p5@11ms", "p6@11ms", "p7@11ms",
	}
	for _, seed := range []int64{1, 7, 42, 1984} {
		got := gateTrace(t, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace %v, want %v", seed, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace[%d] = %q, want %q (full: %v)", seed, i, got[i], want[i], got)
			}
		}
	}
}

// A gated stream conn parks chunks while blocked and replays them in
// send order after resume — TCP semantics survive the pause.
func TestGatedStreamOrderAcrossPause(t *testing.T) {
	sim := simnet.New(simnet.WithLatency(time.Millisecond, 0))
	srvNode, err := sim.NewNode("10.0.0.5")
	if err != nil {
		t.Fatal(err)
	}
	cliNode, _ := sim.NewNode("10.0.0.1")

	gate := netapi.NewFlowGate()
	gated := netapi.Gated(srvNode, gate)

	var got []string
	l, err := gated.ListenStream(9000, nil, func(c netapi.Conn, chunk []byte) {
		if chunk != nil {
			got = append(got, string(chunk))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	conn, err := cliNode.DialStream(netapi.Addr{IP: "10.0.0.5", Port: 9000}, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	gate.Pause()
	for i := 0; i < 5; i++ {
		if err := conn.Send([]byte{'c', '0' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(5 * time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("recv saw %v while gate blocked", got)
	}
	// Resume mid-stream: parked chunks replay first, then the two sent
	// after the resume, still in send order.
	gate.Resume()
	for i := 5; i < 7; i++ {
		if err := conn.Send([]byte{'c', '0' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunToQuiescence()
	want := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
