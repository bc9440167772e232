package netapi

import (
	"sync"
	"sync/atomic"
)

// BufferSize is the capacity of every leased receive buffer: 64 KiB,
// the largest datagram either runtime delivers.
const BufferSize = 64 * 1024

var bufferPool = sync.Pool{
	New: func() any { return &Buffer{data: make([]byte, BufferSize)} },
}

// outstanding counts leased-but-unreleased buffers process-wide: one
// atomic increment per NewBuffer, one decrement per Release. It is the
// lease balance the DST lease-balance invariant reads — after a
// simulated run tears down, the delta over the run must be zero or some
// owner leaked (or double-released, which panics first). No static
// check stands behind it: a lease has one owner and one end.
var outstanding atomic.Int64

// LeasedBuffers returns the number of pool buffers currently leased
// (NewBuffer minus Release). Meaningful as a before/after delta around
// a quiescent run; concurrent read loops elsewhere in the process make
// the absolute value a moving target.
func LeasedBuffers() int64 { return outstanding.Load() }

// Buffer is a leased receive buffer from a shared fixed-size pool.
//
// Runtimes read inbound datagrams directly into a Buffer and hand it
// to the packet handler through Packet.Buf, so the hot receive path
// allocates nothing per datagram. Ownership is single-holder and
// explicit:
//
//   - While the handler callback runs, the packet's Data (a view into
//     the buffer) is valid and the runtime still owns the buffer; a
//     handler that finishes with the bytes synchronously does nothing,
//     and the runtime reuses the buffer for the next datagram (simnet
//     zeroes it first, so a handler that kept Data anyway reads zeros).
//   - A handler that needs the bytes beyond the callback — e.g. the
//     Automata Engine queueing the payload for an ingest worker —
//     takes the lease with Packet.TakeLease and MUST Release it
//     exactly once when done. The engine's ingest job is the lease's
//     one owner: it ends right after the payload is parsed (the parser
//     never aliases its input) or, for a payload never parsed —
//     refused, shed, stale or drained by Close — where the job ends.
//
// Release returns the buffer to the pool; releasing twice panics,
// because a double release would hand one buffer to two owners.
//
// The lease-transfer signal itself ("did the handler take the buffer?")
// deliberately does NOT live on the Buffer: once TakeLease runs, the
// new owner may Release at any moment and the pool may re-lease the
// same Buffer to another read loop, so any per-buffer flag the first
// read loop checked after its callback could be mutated by the
// buffer's next life. Instead Packet.BindLeaseFlag points the packet
// at a bool owned by the dispatching read loop, which TakeLease sets
// synchronously inside the callback — state no other goroutine can
// ever touch, no matter how fast the buffer is recycled.
type Buffer struct {
	data     []byte
	n        int
	released bool
}

// NewBuffer leases a buffer from the pool.
func NewBuffer() *Buffer {
	b := get()
	outstanding.Add(1)
	return b
}

// get pulls a reset buffer from the pool without touching the lease
// accounting — the caller is responsible for the outstanding
// increment, which lets Batch.Refill amortise one atomic over a
// whole slab.
func get() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.n = 0
	b.released = false
	return b
}

// Backing exposes the buffer's full capacity for the runtime's read
// call; the runtime then records the filled length with SetFilled.
func (b *Buffer) Backing() []byte { return b.data }

// SetFilled records how many bytes of the backing array hold data.
func (b *Buffer) SetFilled(n int) {
	if n < 0 || n > len(b.data) {
		panic("netapi: Buffer.SetFilled out of range")
	}
	b.n = n
}

// Bytes returns the filled portion of the buffer.
func (b *Buffer) Bytes() []byte { return b.data[:b.n] }

// Release returns the buffer to the pool. The caller must be the
// buffer's single owner; releasing twice panics.
func (b *Buffer) Release() {
	b.recycle()
	outstanding.Add(-1)
}

// recycle returns the buffer to the pool without touching the lease
// accounting — the bulk counterpart of get(), used by Batch.Release
// to settle a whole slab with one atomic.
func (b *Buffer) recycle() {
	if b.released {
		panic("netapi: Buffer released twice")
	}
	b.released = true
	bufferPool.Put(b)
}
