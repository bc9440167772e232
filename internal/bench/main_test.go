package bench

import (
	"fmt"
	"os"
	"testing"
	"time"

	"starlink/internal/netapi"
)

// TestMain fails the package when its tests leave a buffer lease
// outstanding: both runtimes lease every datagram, so a path that drops
// a release shows here. Realnet read loops give their slabs back as
// their sockets close, so the balance has a second to settle.
func TestMain(m *testing.M) {
	code := m.Run()
	for deadline := time.Now().Add(time.Second); netapi.LeasedBuffers() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := netapi.LeasedBuffers(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d buffer leases outstanding after the tests\n", n)
		code = 1
	}
	os.Exit(code)
}
