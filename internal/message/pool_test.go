//go:build !race

// The race detector makes sync.Pool drop items at random, so this pin
// builds only without it.

package message

import "testing"

// A pooled message and the fields it makes come back to the pools
// whole: once warm, building and releasing one allocates nothing.
func TestPooledMessageAndFieldsAllocs(t *testing.T) {
	labels := []string{"XID", "ST", "MX", "MAN", "HOST", "USN", "EXT", "SERVER", "LOCATION"}
	build := func() {
		m := NewPooled("SSDP", "SSDPResponse")
		for _, l := range labels {
			m.AddPrimitive(l, Str("v"))
		}
		m.AddPrimitive("ST", Str("repeated"))
		m.Release()
	}
	build()
	if got := testing.AllocsPerRun(100, build); got != 0 {
		t.Errorf("a pooled message of %d fields allocates %.1f per build, want 0", len(labels), got)
	}
}
