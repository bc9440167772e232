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

// ---------------------------------------------------------------------
// Slab lease shapes: the batched read loop leases N buffers with one
// netapi.LeaseBatch call and settles the slab with one Batch.Release.
// Element operations — bufs[i] into a Packet, bufs[i] = nil, a
// bufs[i].Release() on a transferred-out element's new owner — are uses
// of the still-owned slab, never settlements of it.
// ---------------------------------------------------------------------

// Historical bug class transposed to slabs: a batched read loop that
// bails on a socket error without returning the slab to the pool.
func batchLeakOnErrorPath(fill func([]byte) (int, error)) {
	bufs := netapi.LeaseBatch(8) // want "never released or transferred"
	for i := range bufs {
		n, err := fill(bufs[i].Backing())
		if err != nil {
			return // leaked: eight pool slots gone
		}
		bufs[i].SetFilled(n)
	}
	bufs.Release()
}

func batchReleasedOnAllPaths(fill func([]byte) (int, error)) {
	bufs := netapi.LeaseBatch(8)
	if _, err := fill(bufs[0].Backing()); err != nil {
		bufs.Release()
		return
	}
	bufs.Release()
}

func batchDeferredRelease(fill func([]byte) (int, error)) {
	bufs := netapi.LeaseBatch(8)
	defer bufs.Release()
	_, _ = fill(bufs[0].Backing())
}

// Passing the slab whole moves ownership: the callee settles it.
func batchTransferred(drain func(netapi.Batch)) {
	bufs := netapi.LeaseBatch(8)
	drain(bufs)
}

// After the bulk release the slab variable is dead: its buffers are
// back in the pool and may already back another socket's reads.
func batchUseAfterRelease() []byte {
	bufs := netapi.LeaseBatch(4)
	bufs.Release()
	return bufs[0].Bytes() // want "use of bufs after release"
}

func batchDoubleRelease() {
	bufs := netapi.LeaseBatch(4)
	bufs.Release()
	bufs.Release() // want "released twice"
}

// The batched dispatch shape: each element rides into a Packet under
// the per-delivery lease-flag protocol, taken slots are nilled, the
// slab is refilled between rounds and bulk-released once at the end.
// Every element operation is a use of the owned slab; only the final
// Batch.Release settles it.
func batchDeliverAndRefill(h netapi.PacketHandler, rounds int) {
	bufs := netapi.LeaseBatch(4)
	for r := 0; r < rounds; r++ {
		for i := range bufs {
			retained := false
			pkt := netapi.Packet{Data: bufs[i].Bytes(), Buf: bufs[i]}
			pkt.BindLeaseFlag(&retained)
			h(pkt)
			if retained {
				bufs[i] = nil
			}
		}
		bufs.Refill()
	}
	bufs.Release()
}

// The self-sizing read loop: the slab doubles while reads keep coming
// back full. Resize hands back the slab the loop already owns, so the
// reassignment is neither an overwrite nor a settlement — the one
// Batch.Release is still owed on every path.
func batchResizedStillOwned(fill func([]byte) (int, error)) {
	bufs := netapi.LeaseBatch(1)
	for len(bufs) < 32 {
		if _, err := fill(bufs[0].Backing()); err != nil {
			bufs.Release()
			return
		}
		bufs = bufs.Resize(2 * len(bufs))
		bufs.Refill()
	}
	bufs.Release()
}

func batchResizedThenLeaked() {
	bufs := netapi.LeaseBatch(1) // want "never released or transferred"
	bufs = bufs.Resize(2)
	bufs.Refill()
}

// Another slab's Resize result is a different lease: assigning it over
// an owned slab loses the owned one.
func batchOverwrittenByAnotherSlab(other netapi.Batch) {
	bufs := netapi.LeaseBatch(1)
	bufs = other.Resize(2) // want "overwritten while still owned"
	bufs.Release()
}
