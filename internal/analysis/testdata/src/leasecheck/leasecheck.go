// Fixtures for the leasecheck analyzer: netapi buffer-lease ownership.
package leasecheck

import (
	"starlink/internal/netapi"
)

// Historical bug class: a read loop that leases a buffer and forgets
// to release it on the error return.
func leakOnErrorPath(read func([]byte) (int, error)) {
	buf := netapi.NewBuffer() // want "never released or transferred"
	n, err := read(buf.Backing())
	if err != nil {
		return // leaked
	}
	buf.SetFilled(n)
	buf.Release()
}

func releasedOnAllPaths(read func([]byte) (int, error)) {
	buf := netapi.NewBuffer()
	if _, err := read(buf.Backing()); err != nil {
		buf.Release()
		return
	}
	buf.Release()
}

func transferredToHandler(h func(*netapi.Buffer)) {
	buf := netapi.NewBuffer()
	h(buf) // ownership moves to h
}

func deferredRelease(read func([]byte) (int, error)) {
	buf := netapi.NewBuffer()
	defer buf.Release()
	_, _ = read(buf.Backing())
}

func useAfterRelease() []byte {
	buf := netapi.NewBuffer()
	buf.Release()
	return buf.Bytes() // want "use of buf after release"
}

func doubleRelease() {
	buf := netapi.NewBuffer()
	buf.Release()
	buf.Release() // want "released twice"
}

func discardedLease(pkt netapi.Packet) {
	pkt.TakeLease() // want "result of TakeLease discarded"
}

// The netengine transfer idiom: the lease rides the handler call.
func transferDirect(pkt netapi.Packet, h func([]byte, *netapi.Buffer)) {
	h(pkt.Data, pkt.TakeLease())
}

// TakeLease is nil for heap-owned packets; a nil check settles the
// no-lease path.
func takeLeaseNilRefined(pkt netapi.Packet) {
	lease := pkt.TakeLease()
	if lease != nil {
		lease.Release()
	}
}

func takeLeaseLeaked(pkt netapi.Packet, ok bool) {
	lease := pkt.TakeLease() // want "never released or transferred"
	if ok {
		return // leaked when ok
	}
	if lease != nil {
		lease.Release()
	}
}

var sink []byte

// Retaining Packet.Data without the lease: the read loop reuses the
// backing buffer under the retained slice.
func retainWithoutLease(pkt netapi.Packet) {
	sink = pkt.Data // want "without taking the packet's lease"
}

func retainOnChannel(ch chan []byte, pkt netapi.Packet) {
	ch <- pkt.Data // want "without taking the packet's lease"
}

type held struct {
	data  []byte
	lease *netapi.Buffer
}

// Retention WITH the lease is the sanctioned hand-off shape.
func retainWithLease(ch chan held, pkt netapi.Packet) {
	ch <- held{data: pkt.Data, lease: pkt.TakeLease()}
}

// Local copies die with the frame: not retention.
func localUseOnly(pkt netapi.Packet) int {
	data := pkt.Data
	return len(data)
}

// ---------------------------------------------------------------------
// Fault-plane delivery shapes: the simnet fault injector turns one send
// into zero (drop), one or two (duplicate) deliveries, each under the
// leased-delivery protocol. These fixtures pin that the injector's
// sanctioned shape stays clean and that the shortcuts it must not take
// keep being reported.
// ---------------------------------------------------------------------

// The simnet deliver shape: every delivery — original or injected
// duplicate — copies into its own pooled buffer and settles it with the
// lease-flag protocol. Ownership rides into the Packet literal; the
// conditional release is the dispatcher honoring an untaken lease.
func faultDeliverLeased(h netapi.PacketHandler, data []byte) {
	buf := netapi.NewBuffer()
	n := copy(buf.Backing(), data)
	buf.SetFilled(n)
	retained := false
	pkt := netapi.Packet{Data: buf.Bytes(), Buf: buf}
	pkt.BindLeaseFlag(&retained)
	h(pkt)
	if !retained {
		buf.Release()
	}
}

// The shortcut fault injection must not take: re-delivering the
// original's buffer for the duplicate after the original delivery
// settled its lease. The pool may have re-leased the backing array to
// another read loop by then.
func faultDupReusesReleased(h netapi.PacketHandler, data []byte, dup bool) {
	buf := netapi.NewBuffer()
	n := copy(buf.Backing(), data)
	buf.SetFilled(n)
	h(netapi.Packet{Data: buf.Bytes()})
	buf.Release()
	if dup {
		h(netapi.Packet{Data: buf.Bytes()}) // want "use of buf after release"
	}
}

// Dropping a delivery still owns the buffer it copied into: a fault
// verdict that returns early without releasing leaks the pool slot.
func faultDropLeaksBuffer(h netapi.PacketHandler, data []byte, dropped bool) {
	buf := netapi.NewBuffer() // want "never released or transferred"
	n := copy(buf.Backing(), data)
	buf.SetFilled(n)
	if dropped {
		return // leaked: the drop path forgot the release
	}
	h(netapi.Packet{Data: buf.Bytes(), Buf: buf})
}

// The sanctioned drop shape: the verdict releases before bailing.
func faultDropReleases(h netapi.PacketHandler, data []byte, dropped bool) {
	buf := netapi.NewBuffer()
	n := copy(buf.Backing(), data)
	buf.SetFilled(n)
	if dropped {
		buf.Release()
		return
	}
	h(netapi.Packet{Data: buf.Bytes(), Buf: buf})
}
