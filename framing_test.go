package starlink_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/realnet"
)

// oversized is an HTTP message whose one frame is longer than
// netapi.BufferSize, the most a stream framer accumulates.
func oversized(head string) []byte {
	body := strings.Repeat("x", netapi.BufferSize+1024)
	return []byte(fmt.Sprintf("%s\r\nContent-Length: %d\r\n\r\n%s", head, len(body), body))
}

// openFDs counts the process's open descriptors, -1 where /proc is not
// there to read.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// A stream frame longer than netapi.BufferSize loses where the next
// frame starts: the connection is dropped and counted once as
// starlink_drops_total{reason="framing"}, on a bridge's HTTP listener
// (upnp-to-bonjour's :8080) and on a requester connection
// (slp-to-upnp's description fetch) alike, and once the bridges and
// their peers are closed every goroutine, descriptor and lease is back.
func TestFramingDropsOnLoopback(t *testing.T) {
	goroutines, fds, leases := runtime.NumGoroutine(), openFDs(), netapi.LeasedBuffers()
	rt := starlink.Loopback()
	rn := rt.Backend().(*realnet.Runtime)
	fw, err := starlink.New(rt)
	if err != nil {
		t.Fatal(err)
	}
	col := starlink.NewCollector()
	framing := func(name string, b *starlink.Bridge) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); b.Metrics().Dispatch.Framing < 1; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no framing drop counted: %+v", name, b.Metrics().Dispatch)
			}
		}
		if got := b.Metrics().Dispatch.Framing; got != 1 {
			t.Errorf("%s: %d framing drops, want 1", name, got)
		}
		col.Register(name, b)
		defer col.Unregister(name)
		if got := scrape(t, col, "/metrics"); !strings.Contains(got, "\nstarlink_drops_total{reason=\"framing\"} 1\n") {
			t.Errorf("%s: exposition has no starlink_drops_total{reason=\"framing\"} 1:\n%s", name, got)
		}
	}

	// The listener: a request longer than a buffer, sent straight to
	// the bridge's HTTP port, gets its connection closed.
	listening, err := fw.DeployBridge(context.Background(), loopbackHost, "upnp-to-bonjour")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp4", loopbackHost+":8080")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Write(oversized("GET /description.xml HTTP/1.1\r\nHost: " + loopbackHost)) }()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := io.Copy(io.Discard, c); n != 0 || os.IsTimeout(err) {
		t.Errorf("the bridge answered %d bytes (%v), want the connection dropped", n, err)
	}
	_ = c.Close()
	framing("listener", listening)
	if err := listening.Close(); err != nil {
		t.Fatal(err)
	}

	// The requester: a device whose description is longer than a buffer.
	desc, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := desc.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := bufio.NewReader(c)
				for line, err := r.ReadString('\n'); err == nil && line != "\r\n"; line, err = r.ReadString('\n') {
				}
				_, _ = c.Write(oversized("HTTP/1.1 200 OK\r\nContent-Type: text/xml"))
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()
	requesting, err := fw.DeployBridge(context.Background(), loopbackHost, "slp-to-upnp",
		starlink.WithReceiveTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	devNode, _ := rn.NewNode("127.0.0.1")
	dev, err := ssdp.NewDevice(devNode, "urn:printer", "http://"+desc.Addr().String()+"/description.xml", "uuid:printer")
	if err != nil {
		t.Fatal(err)
	}
	cliNode, _ := rn.NewNode("127.0.0.1")
	slp.NewUserAgent(cliNode, slp.WithConvergenceWait(100*time.Millisecond)).
		Lookup("service:printer", func(slp.LookupResult) {})
	framing("requester", requesting)
	if err := requesting.Close(); err != nil {
		t.Fatal(err)
	}
	_ = dev.Close()
	_ = desc.Close()
	devNode.Close()
	cliNode.Close()

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g, f, l := runtime.NumGoroutine(), openFDs(), netapi.LeasedBuffers()
		if g <= goroutines && f <= fds && l == leases {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines (%d before), %d descriptors (%d before), %d leases (%d before)",
				g, goroutines, f, fds, l, leases)
		}
	}
}
