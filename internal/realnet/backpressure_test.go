package realnet_test

import (
	"errors"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/realnet"
)

// tcpBufSysctl reads one of the three values of net.ipv4.tcp_wmem or
// tcp_rmem (min, default, max).
func tcpBufSysctl(t *testing.T, name string, i int) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/sys/net/ipv4/" + name)
	if err != nil {
		t.Skipf("no %s: %v", name, err)
	}
	f := strings.Fields(string(b))
	if len(f) != 3 {
		t.Fatalf("%s = %q", name, b)
	}
	v, err := strconv.ParseInt(f[i], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A peer that never reads its replies holds the senders back: Send
// returns once the kernel has taken the bytes, so what Send accepts
// stays within what the two sockets buffer — the send buffer, which
// autotuning grows up to tcp_wmem's max, and the receive buffer, which
// stays at tcp_rmem's default because autotuning grows it only as the
// application reads — plus the chunk each sender has in hand. Closing
// the connection returns every blocked sender, and the goroutines go
// back to where they were.
func TestStreamSendToPeerThatNeverReads(t *testing.T) {
	bound := tcpBufSysctl(t, "tcp_wmem", 2) + tcpBufSysctl(t, "tcp_rmem", 1)
	base := runtime.NumGoroutine()

	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peers := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			peers <- c
		}
	}()
	rt := realnet.New()
	node, _ := rt.NewNode("10.0.0.1")
	defer node.Close()
	conn, err := node.DialStream(netapi.Addr{IP: "127.0.0.1", Port: ln.Addr().(*net.TCPAddr).Port}, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	peer := <-peers
	defer peer.Close()

	const senders, chunks, chunk = 8, 64, 64 << 10
	bound += senders * chunk
	payload := make([]byte, chunk)
	var taken atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < chunks; j++ {
				if conn.Send(payload) != nil {
					return
				}
				taken.Add(chunk)
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	t.Logf("Send accepted %d of %d bytes; bound %d", taken.Load(), senders*chunks*chunk, bound)
	if got := taken.Load(); got > bound {
		t.Errorf("Send accepted %d bytes for a peer that reads nothing, want at most %d", got, bound)
	}

	peer.Close()
	ln.Close()
	node.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before", n, base)
	}
}

// A Send blocked on a peer that never reads fails once it has waited the
// write timeout, with an error wrapping os.ErrDeadlineExceeded; the
// error latches, so the senders queued behind it fail at once rather
// than each waiting its own timeout, and none is held until Close.
func TestStreamSendTimesOutOnPeerThatNeverReads(t *testing.T) {
	const timeout = 200 * time.Millisecond
	defer realnet.SetIOTimeout(timeout)()
	base := runtime.NumGoroutine()

	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peers := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			peers <- c
		}
	}()
	rt := realnet.New()
	node, _ := rt.NewNode("10.0.0.1")
	defer node.Close()
	conn, err := node.DialStream(netapi.Addr{IP: "127.0.0.1", Port: ln.Addr().(*net.TCPAddr).Port}, func(netapi.Conn, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	peer := <-peers
	defer peer.Close()

	const senders, chunk = 8, 64 << 10
	payload := make([]byte, chunk)
	errs := make(chan error, senders)
	waits := make(chan time.Duration, senders)
	for i := 0; i < senders; i++ {
		go func() {
			for {
				start := time.Now()
				if err := conn.Send(payload); err != nil {
					waits <- time.Since(start)
					errs <- err
					return
				}
			}
		}()
	}
	limit := time.After(senders * 2 * timeout)
	for i := 0; i < senders; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("blocked Send returned %v, want an error wrapping os.ErrDeadlineExceeded", err)
			}
			if wait := <-waits; wait > 2*timeout {
				t.Errorf("blocked Send returned after %v, want within %v", wait, 2*timeout)
			}
		case <-limit:
			t.Fatalf("%d of %d senders still blocked on a peer that reads nothing", senders-i, senders)
		}
	}

	conn.Close()
	peer.Close()
	ln.Close()
	node.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before", n, base)
	}
}
