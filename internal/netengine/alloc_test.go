//go:build !race

// Allocation pins: the race detector makes sync.Pool drop items at
// random, so these build only without it.

package netengine

import (
	"testing"

	"starlink/internal/netapi"
)

// A chunk that carries whole frames is framed straight from the chunk
// into pooled leases, through a frame list on the caller's stack: no
// allocation.
func TestSplitFramesWholeFrameAllocs(t *testing.T) {
	framer := httpFramer(t)
	chunk := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiGET / HTTP/1.1\r\nHost: b\r\n\r\n")
	var buf []byte
	frame := func() {
		var fb [4]*netapi.Buffer
		frames, ok := splitFrames(framer, &buf, chunk, fb[:0])
		if !ok || len(frames) != 2 {
			t.Fatalf("%d frames, ok=%v", len(frames), ok)
		}
		for _, f := range frames {
			f.Release()
		}
	}
	frame()
	if got := testing.AllocsPerRun(200, frame); got != 0 {
		t.Errorf("framing a whole-frame chunk allocates %.1f per chunk, want 0", got)
	}
}
