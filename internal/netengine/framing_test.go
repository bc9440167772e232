package netengine

import (
	"bytes"
	"io/fs"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/mdl"
	"starlink/internal/models"
	"starlink/internal/netapi"
	"starlink/internal/parser"
	"starlink/internal/protocols/slp"
	"starlink/internal/realnet"
)

// httpFramer is the text framer of the test HTTP model.
func httpFramer(tb testing.TB) *parser.Framer {
	tb.Helper()
	spec, err := mdl.ParseXMLString(httpSpec)
	if err != nil {
		tb.Fatal(err)
	}
	fr, err := parser.NewFramer(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return fr
}

// slpFramer is the binary framer of the shipped SLP model, which frames
// on its f-totallength header field.
func slpFramer(tb testing.TB) *parser.Framer {
	tb.Helper()
	src, err := fs.ReadFile(models.FS, "slp-mdl.xml")
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := mdl.ParseXMLString(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	fr, err := parser.NewFramer(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return fr
}

// hugeHead announces a body of 2 GiB - 1: a frame no lease can hold.
const hugeHead = "HTTP/1.1 200 OK\r\nContent-Length: 2147483647\r\n\r\n"

// sendHugeBody sends 1 MiB of body in 4 KiB chunks, stopping at the
// first send the peer refuses.
func sendHugeBody(conn netapi.Conn) {
	chunk := bytes.Repeat([]byte("x"), 4<<10)
	for sent := 0; sent < 1<<20; sent += len(chunk) {
		if conn.Send(chunk) != nil {
			return
		}
	}
}

// waitLeases waits for the process's leased buffers to return to base.
func waitLeases(t *testing.T, rt netapi.Runtime, base int64) {
	t.Helper()
	if err := rt.RunUntil(func() bool { return netapi.LeasedBuffers() == base }, 3*time.Second); err != nil {
		t.Errorf("leased buffers %d, baseline %d", netapi.LeasedBuffers(), base)
	}
}

// A frame longer than a lease is a framing error, not a reason to keep
// buffering: one peer announcing 2 GiB must cost the bridge at most
// netapi.BufferSize of accumulation buffer.
func TestSplitFramesBoundsAccumulation(t *testing.T) {
	framer := httpFramer(t)
	base := netapi.LeasedBuffers()
	var buf []byte
	frames, ok := splitFrames(framer, &buf, []byte(hugeHead), nil)
	fed := len(hugeHead)
	chunk := bytes.Repeat([]byte("x"), 4<<10)
	for ; ok && fed < len(hugeHead)+1<<20; fed += len(chunk) {
		frames, ok = splitFrames(framer, &buf, chunk, frames)
		if len(buf) > netapi.BufferSize || cap(buf) > netapi.BufferSize {
			t.Fatalf("after %d bytes the accumulation buffer is %d bytes (capacity %d), bound %d", fed, len(buf), cap(buf), netapi.BufferSize)
		}
	}
	if ok {
		t.Fatal("1 MiB of one frame framed without error")
	}
	if fed > netapi.BufferSize+len(chunk)+len(hugeHead) {
		t.Errorf("framing error after %d bytes, want it once %d are buffered", fed, netapi.BufferSize)
	}
	if len(frames) != 0 || len(buf) != 0 {
		t.Errorf("%d frames, %d bytes still buffered after the error", len(frames), len(buf))
	}
	if got := netapi.LeasedBuffers(); got != base {
		t.Errorf("leased buffers %d, baseline %d", got, base)
	}
}

// A listener that loses a connection's framing drops the connection's
// state and the connection, and delivers nothing of it.
func TestListenerClosesConnectionThatLostFraming(t *testing.T) {
	base := netapi.LeasedBuffers()
	rt := realnet.New()
	srvNode, _ := rt.NewNode("10.0.0.5")
	defer srvNode.Close()
	cliNode, _ := rt.NewNode("10.0.0.1")
	defer cliNode.Close()
	var delivered atomic.Int32
	ln, err := New(srvNode).Listen(tcpColor("0"), httpFramer(t), func(_ []byte, _ Source, lease *netapi.Buffer) {
		delivered.Add(1)
		lease.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan struct{})
	conn, err := cliNode.DialStream(ln.(interface{ Addr() netapi.Addr }).Addr(), func(_ netapi.Conn, data []byte) {
		if data == nil {
			close(closed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte(hugeHead)); err != nil {
		t.Fatal(err)
	}
	sendHugeBody(conn)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the listener kept a connection whose frame outgrew the buffer")
	}
	if n := delivered.Load(); n != 0 {
		t.Errorf("%d frames delivered from a connection that lost framing", n)
	}
	waitLeases(t, rt, base)
}

// A requester whose connection lost framing closes it: parked, the
// connection would hand the next session to that destination the rest
// of a response it never asked for.
func TestRequesterThatLostFramingIsNotParked(t *testing.T) {
	for _, tc := range []struct {
		name, head string
		hugeBody   bool
	}{
		{"bad Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: zz\r\n\r\n", false},
		{"frame longer than a lease", hugeHead, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := netapi.LeasedBuffers()
			rt := realnet.New()
			srvNode, _ := rt.NewNode("10.0.0.5")
			defer srvNode.Close()
			cliNode, _ := rt.NewNode("10.0.0.1")
			defer cliNode.Close()
			var accepted atomic.Int32
			answered := make(chan struct{}, 2)
			ln, err := srvNode.ListenStream(0, func(netapi.Conn) { accepted.Add(1) }, func(conn netapi.Conn, data []byte) {
				if data == nil {
					return
				}
				_ = conn.Send([]byte(tc.head))
				if tc.hugeBody {
					sendHugeBody(conn)
				}
				answered <- struct{}{}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			dest := netapi.Addr{IP: "10.0.0.5", Port: ln.(interface{ Addr() netapi.Addr }).Addr().Port}
			e := New(cliNode)
			var delivered atomic.Int32
			exchange := func() *Requester {
				t.Helper()
				r, err := e.NewRequester(tcpColor("0"), dest, httpFramer(t), func(_ []byte, _ Source, lease *netapi.Buffer) {
					delivered.Add(1)
					lease.Release()
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Send([]byte("GET /desc.xml HTTP/1.1\r\nHost: b\r\n\r\n")); err != nil {
					t.Fatal(err)
				}
				select {
				case <-answered:
				case <-time.After(5 * time.Second):
					t.Fatal("no answer")
				}
				return r
			}
			first := exchange()
			if err := rt.RunUntil(func() bool {
				first.frMu.Lock()
				defer first.frMu.Unlock()
				return first.frLost
			}, 3*time.Second); err != nil {
				t.Fatal("the requester never saw its framing fail")
			}
			if n := cap(first.frBuf); n > netapi.BufferSize {
				t.Errorf("accumulation buffer grew to %d bytes, bound %d", n, netapi.BufferSize)
			}
			first.Close()
			exchange().Close()
			if n := accepted.Load(); n != 2 {
				t.Errorf("server accepted %d connections for two requesters: one reused a connection that lost framing", n)
			}
			if n := delivered.Load(); n != 0 {
				t.Errorf("%d frames delivered", n)
			}
			waitLeases(t, rt, base)
		})
	}
}

// FuzzSplitFrames holds the stream framer, on any bytes cut into chunks
// anywhere, to framing the same bytes in one piece: the same frames and
// the same verdict, no frame aliasing a chunk, every lease back once the
// frames are released, and an accumulation buffer within
// netapi.BufferSize. cuts gives the chunk lengths in turn; what they
// leave is one last chunk. pad filler bytes are inserted at offset at of
// data, so that frames around the size bound are reached without
// mutating 64 KiB inputs, which stalls the fuzzing engine.
func FuzzSplitFrames(f *testing.F) {
	framers := []*parser.Framer{httpFramer(f), slpFramer(f)}
	get := "GET /desc.xml HTTP/1.1\r\nHost: 10.0.0.7:5431\r\n\r\n"
	ok := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
	bound := "HTTP/1.1 200 OK\r\nContent-Length: 65497\r\n\r\n" // a frame of exactly netapi.BufferSize
	f.Add(uint8(0), []byte(get+ok+get), []byte{3, 17, 0, 40, 1}, uint16(0), uint16(0))
	f.Add(uint8(0), []byte(ok+"HTTP/1.1 200 OK\r\nContent-Length: zz\r\n\r\n"+get), []byte{60}, uint16(0), uint16(0))
	f.Add(uint8(0), []byte(hugeHead), []byte{255, 255, 255}, uint16(65535), uint16(len(hugeHead)))
	f.Add(uint8(0), []byte(bound+get), []byte{200, 7}, uint16(65497), uint16(len(bound)))
	f.Add(uint8(0), []byte(bound+get), []byte{1}, uint16(65498), uint16(len(bound)))
	rqst := (&slp.SrvRqst{Header: slp.Header{XID: 42, LangTag: "en"}, ServiceType: "service:printer"}).Marshal()
	f.Add(uint8(1), append(append([]byte(nil), rqst...), rqst...), []byte{5, 0, 30}, uint16(0), uint16(0))
	f.Add(uint8(1), append([]byte{2, 1, 0, 0, 3}, rqst...), []byte{2}, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, which uint8, data, cuts []byte, pad, at uint16) {
		framer := framers[int(which)%len(framers)]
		a := int(at) % (len(data) + 1)
		data = append(append(append([]byte(nil), data[:a]...), bytes.Repeat([]byte("x"), int(pad))...), data[a:]...)
		base := netapi.LeasedBuffers()
		want, wantOK := splitFrames(framer, new([]byte), bytes.Clone(data), nil)
		var buf []byte
		var got []*netapi.Buffer
		gotOK := true
		for rest := data; gotOK && len(rest) > 0; {
			n := len(rest)
			if len(cuts) > 0 {
				n, cuts = min(n, int(cuts[0])), cuts[1:]
			}
			got, gotOK = splitFrames(framer, &buf, rest[:n], got)
			rest = rest[n:]
			if cap(buf) > netapi.BufferSize {
				t.Fatalf("accumulation buffer capacity %d, bound %d", cap(buf), netapi.BufferSize)
			}
		}
		for i := range data {
			data[i] ^= 0xff // a frame that aliased a chunk changes with it
		}
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("chunked: %d frames, ok=%v; whole: %d frames, ok=%v", len(got), gotOK, len(want), wantOK)
		}
		for i := range got {
			if !bytes.Equal(got[i].Bytes(), want[i].Bytes()) {
				t.Fatalf("frame %d chunked %q, whole %q", i, got[i].Bytes(), want[i].Bytes())
			}
		}
		for _, fr := range append(got, want...) {
			fr.Release()
		}
		if n := netapi.LeasedBuffers(); n != base {
			t.Fatalf("leased buffers %d after release, baseline %d", n, base)
		}
	})
}
