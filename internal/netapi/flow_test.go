package netapi

import (
	"sync"
	"testing"
	"time"
)

func TestFlowGateCounting(t *testing.T) {
	g := NewFlowGate()
	if g.Blocked() {
		t.Fatal("new gate blocked")
	}
	g.Pause()
	g.Pause()
	if !g.Blocked() {
		t.Fatal("gate open with two holds")
	}
	g.Resume()
	if !g.Blocked() {
		t.Fatal("gate open with one hold outstanding")
	}
	g.Resume()
	if g.Blocked() {
		t.Fatal("gate blocked with no holds")
	}
	if g.Pauses() != 1 {
		t.Fatalf("pause cycles = %d, want 1 (nested holds are one cycle)", g.Pauses())
	}
	// Every read loop asks twice per read.
	if n := testing.AllocsPerRun(100, func() { g.Blocked() }); n != 0 {
		t.Fatalf("Blocked allocates %v per call, want 0", n)
	}
}

func TestFlowGateResumeWithoutPausePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Resume did not panic")
		}
	}()
	NewFlowGate().Resume()
}

func TestFlowGateWaitBlocksUntilOpen(t *testing.T) {
	g := NewFlowGate()
	g.Wait() // open gate: returns immediately
	g.Pause()
	released := make(chan struct{})
	go func() {
		g.Wait()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("Wait returned while gate blocked")
	case <-time.After(20 * time.Millisecond):
	}
	g.Resume()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after Resume")
	}
}

func TestFlowGateNotifyOnReopen(t *testing.T) {
	g := NewFlowGate()
	var mu sync.Mutex
	calls := 0
	g.Notify(func() { mu.Lock(); calls++; mu.Unlock() })
	g.Pause()
	g.Pause()
	g.Resume() // still blocked: no notification
	mu.Lock()
	if calls != 0 {
		mu.Unlock()
		t.Fatalf("notified %d times while still blocked", calls)
	}
	mu.Unlock()
	g.Resume()
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("notified %d times on reopen, want 1", calls)
	}
}

// Detach and Gated build views whose plain openers reach the node's
// mode-taking primitive with the composed mode: in either order, with
// the outermost gate winning, and without stacking a view on a node
// that already opens that way.
func TestViewModes(t *testing.T) {
	base := &modeNode{}
	g1, g2 := NewFlowGate(), NewFlowGate()
	for _, tc := range []struct {
		name string
		node Node
		want Mode
	}{
		{"node", base, Mode{}},
		{"detached", Detach(base), Mode{Detached: true}},
		{"gated", Gated(base, g1), Mode{Gate: g1}},
		{"detached then gated", Gated(Detach(base), g1), Mode{Detached: true, Gate: g1}},
		{"gated then detached", Detach(Gated(base, g1)), Mode{Detached: true, Gate: g1}},
		{"regated", Gated(Gated(Detach(base), g1), g2), Mode{Detached: true, Gate: g2}},
		{"wrapped", Detach(struct{ Node }{Gated(base, g1)}), Mode{Detached: true, Gate: g1}},
	} {
		if got := tc.node.Mode(); got != tc.want {
			t.Errorf("%s: Mode() = %+v, want %+v", tc.name, got, tc.want)
		}
		base.opened = nil
		_, _ = tc.node.OpenUDP(0, nil)
		_, _ = tc.node.JoinGroup(Addr{}, nil)
		_, _ = tc.node.ListenStream(0, nil, nil)
		_, _ = tc.node.DialStream(Addr{}, nil)
		if len(base.opened) != 4 {
			t.Fatalf("%s: %d of the 4 plain openers reached the node", tc.name, len(base.opened))
		}
		for i, m := range base.opened {
			if m != tc.want {
				t.Errorf("%s: opener %d opened in %+v, want %+v", tc.name, i, m, tc.want)
			}
		}
	}
	if got := Gated(base, nil); got != Node(base) {
		t.Error("Gated(n, nil) is not n")
	}
	if d := Detach(base); Detach(d) != d {
		t.Error("Detach of a detached view is not that view")
	}
}

// modeNode records the mode of every endpoint opened on it.
type modeNode struct{ opened []Mode }

func (n *modeNode) IP() string { return "" }
func (n *modeNode) Mode() Mode { return Mode{} }
func (n *modeNode) OpenUDP(port int, h PacketHandler) (UDPSocket, error) {
	return n.OpenUDPIn(Mode{}, port, h)
}
func (n *modeNode) JoinGroup(g Addr, h PacketHandler) (UDPSocket, error) {
	return n.JoinGroupIn(Mode{}, g, h)
}
func (n *modeNode) ListenStream(port int, a ConnHandler, r StreamHandler) (Closer, error) {
	return n.ListenStreamIn(Mode{}, port, a, r)
}
func (n *modeNode) DialStream(to Addr, r StreamHandler) (Conn, error) {
	return n.DialStreamIn(Mode{}, to, r)
}
func (n *modeNode) OpenUDPIn(m Mode, _ int, _ PacketHandler) (UDPSocket, error) {
	n.opened = append(n.opened, m)
	return nil, nil
}
func (n *modeNode) JoinGroupIn(m Mode, _ Addr, _ PacketHandler) (UDPSocket, error) {
	n.opened = append(n.opened, m)
	return nil, nil
}
func (n *modeNode) ListenStreamIn(m Mode, _ int, _ ConnHandler, _ StreamHandler) (Closer, error) {
	n.opened = append(n.opened, m)
	return nil, nil
}
func (n *modeNode) DialStreamIn(m Mode, _ Addr, _ StreamHandler) (Conn, error) {
	n.opened = append(n.opened, m)
	return nil, nil
}
func (n *modeNode) Now() time.Time                      { return time.Time{} }
func (n *modeNode) After(time.Duration, func()) TimerID { return 0 }
func (n *modeNode) NewTimer(func()) Timer               { return nil }
func (n *modeNode) WorkAdd()                            {}
func (n *modeNode) WorkDone()                           {}
func (n *modeNode) ParkConn(Conn) bool                  { return false }
func (n *modeNode) Close() error                        { return nil }
