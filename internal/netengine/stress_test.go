package netengine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/mdl"
	"starlink/internal/netapi"
	"starlink/internal/parser"
	"starlink/internal/realnet"
)

// Many per-session goroutines replying on one realnet stream
// connection while the peer keeps sending: the engine's sessions do
// exactly this (Reply from session goroutines, entry payloads arriving
// concurrently), so the conn's turn-taking writes and the framer's
// reassembly must hold up under -race and deliver every frame intact.
func TestConcurrentReplySendOneStreamConn(t *testing.T) {
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	cliNode, _ := rt.NewNode("10.0.0.1")
	spec, err := mdl.ParseXMLString(httpSpec)
	if err != nil {
		t.Fatal(err)
	}
	framer, err := parser.NewFramer(spec)
	if err != nil {
		t.Fatal(err)
	}

	const (
		repliers   = 16
		perReplier = 50
		requests   = 100
	)
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi")

	srv := New(srvNode)
	var (
		mu       sync.Mutex
		src      *Source
		srcReady = make(chan struct{})
		served   atomic.Int64
	)
	closer, err := srv.Listen(tcpColor("0"), framer, func(data []byte, s Source, lease *netapi.Buffer) {
		served.Add(1)
		mu.Lock()
		if src == nil {
			cp := s
			src = &cp
			close(srcReady)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(interface{ Addr() netapi.Addr }).Addr()

	cli := New(cliNode)
	var receivedFrames atomic.Int64
	req, err := cli.NewRequester(tcpColor("0"), netapi.Addr{IP: "10.0.0.5", Port: addr.Port}, framer,
		func(data []byte, s Source, lease *netapi.Buffer) {
			if !strings.HasSuffix(string(data), "hi") {
				t.Errorf("corrupt frame: %q", data)
			}
			receivedFrames.Add(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()

	get := []byte("GET /x HTTP/1.1\r\nHost: b\r\n\r\n")
	if err := req.Send(get); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srcReady:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the first request")
	}

	// Hammer the one connection from both directions at once.
	var wg sync.WaitGroup
	for i := 0; i < repliers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perReplier; j++ {
				if err := src.Reply(reply); err != nil {
					t.Errorf("reply: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < requests/4; j++ {
				if err := req.Send(get); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	wantReplies := int64(repliers * perReplier)
	wantServed := int64(1 + requests)
	err = rt.RunUntil(func() bool {
		return receivedFrames.Load() == wantReplies && served.Load() == wantServed
	}, 10*time.Second)
	if err != nil {
		t.Fatalf("frames=%d/%d served=%d/%d: %v",
			receivedFrames.Load(), wantReplies, served.Load(), wantServed, err)
	}
}
