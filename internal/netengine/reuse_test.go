package netengine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

// inOrderPeer is an HTTP/1.1 server on a loopback listener: it answers
// framed GETs one at a time, in arrival order, with the request path as
// the body ("GET /1" is answered "r1"). The answer to /1 waits slow.
type inOrderPeer struct {
	dest netapi.Addr

	mu    sync.Mutex
	ports []int // client port of each request, in arrival order
}

func startInOrderPeer(t *testing.T, node netapi.Node, slow time.Duration) *inOrderPeer {
	t.Helper()
	type job struct {
		src  Source
		path string
	}
	p := &inOrderPeer{}
	// Room for every request a test sends, so that the listener never
	// waits on the answering goroutine.
	jobs := make(chan job, 16)
	quit := make(chan struct{})
	ln, err := New(node).Listen(tcpColor("0"), httpFramer(t), func(data []byte, src Source, lease *netapi.Buffer) {
		path := strings.Fields(string(data))[1]
		lease.Release()
		p.mu.Lock()
		p.ports = append(p.ports, src.Addr.Port)
		p.mu.Unlock()
		select {
		case jobs <- job{src, path}:
		case <-quit:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			select {
			case j := <-jobs:
				if j.path == "/1" {
					select {
					case <-time.After(slow):
					case <-quit:
						return
					}
				}
				_ = j.src.Reply([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nr" + j.path[1:]))
			case <-quit:
				return
			}
		}
	}()
	t.Cleanup(func() {
		close(quit)
		ln.Close()
	})
	p.dest = netapi.Addr{IP: "10.0.0.5", Port: ln.(interface{ Addr() netapi.Addr }).Addr().Port}
	return p
}

// requested lists the client port of every request served so far.
func (p *inOrderPeer) requested() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.ports...)
}

// requester opens a requester to the peer whose answers go to got. got
// needs room for every answer the peer can send it, so that a delivery
// never blocks the connection.
func (p *inOrderPeer) requester(t *testing.T, e *Engine, got chan<- string) *Requester {
	t.Helper()
	r, err := e.NewRequester(tcpColor("0"), p.dest, httpFramer(t), func(data []byte, _ Source, lease *netapi.Buffer) {
		got <- string(data)
		lease.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A session that times out on a slow peer closes its requester with
// the request still unanswered. Parked, the connection would hand that
// late answer to the next session to the same peer as its own.
func TestReusedConnectionCarriesNoEarlierAnswer(t *testing.T) {
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	defer srvNode.Close()
	cliNode, _ := rt.NewNode("10.0.0.1")
	defer cliNode.Close()
	peer := startInOrderPeer(t, srvNode, 300*time.Millisecond)
	e := New(cliNode)

	a := peer.requester(t, e, make(chan string, 2))
	if err := a.Send([]byte("GET /1 HTTP/1.1\r\nHost: b\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntil(func() bool { return len(peer.requested()) == 1 }, 5*time.Second); err != nil {
		t.Fatal("the peer never saw the first request")
	}
	a.Close()

	got := make(chan string, 2)
	b := peer.requester(t, e, got)
	defer b.Close()
	if err := b.Send([]byte("GET /2 HTTP/1.1\r\nHost: b\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case answer := <-got:
		if !strings.HasSuffix(answer, "r2") {
			t.Fatalf("the second requester read %q, the answer to the first one's request (client ports %v)",
				answer, peer.requested())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no answer")
	}
}

// Requesters whose every request was answered leave their connection
// at a clean boundary: the next one to the same peer reuses it.
func TestAnsweredRequestersShareOneConnection(t *testing.T) {
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	defer srvNode.Close()
	cliNode, _ := rt.NewNode("10.0.0.1")
	defer cliNode.Close()
	peer := startInOrderPeer(t, srvNode, 0)
	e := New(cliNode)

	for _, path := range []string{"/1", "/2", "/3"} {
		got := make(chan string, 1)
		r := peer.requester(t, e, got)
		if err := r.Send([]byte("GET " + path + " HTTP/1.1\r\nHost: b\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		select {
		case answer := <-got:
			if want := "r" + path[1:]; !strings.HasSuffix(answer, want) {
				t.Fatalf("answer %q, want body %s", answer, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no answer")
		}
		r.Close()
	}
	if ports := peer.requested(); len(ports) != 3 || ports[0] != ports[1] || ports[1] != ports[2] {
		t.Errorf("client ports %v: three answered requesters did not share one connection", ports)
	}
}
