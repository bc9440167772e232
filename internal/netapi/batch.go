package netapi

// Batch is a slab of pooled receive buffers leased together for a
// batched receive syscall (recvmmsg): one lease-accounting atomic
// covers the whole slab instead of one per buffer, so the amortised
// bookkeeping cost of an N-packet batch is 1/N of the per-datagram
// path. A slab starts empty (a nil Batch, or a slice over the owner's
// own storage) and is sized with Resize and filled with Refill.
//
// Ownership rules mirror Buffer's single-holder contract, lifted to
// the slab:
//
//   - the caller owns every slot Refill leased until it either
//     releases the slab (Release) or transfers a slot to another
//     owner.
//   - A slot whose lease was taken by a handler (the per-delivery
//     BindLeaseFlag protocol — the read loop resets its flag for each
//     datagram of a batch) is transferred by nilling it out; the new
//     owner settles it with Buffer.Release, which carries its own
//     single-buffer decrement, so the accounting balances slot by
//     slot.
//   - Release returns every remaining (non-nil) slot to the pool with
//     one decrement covering them all, and nils the slots: touching
//     the slab again without Refill is a use-after-release.
//   - Refill re-leases the nil slots (transferred or bulk-released) so
//     the same slab array feeds the next batched read without
//     reallocating.
//   - Resize changes how many slots the slab has — a read loop sizes
//     its slab from the backlog it observes — and the result replaces
//     the receiver as the one slab the caller owns: dropped slots are
//     released, added ones are empty until the next Refill.
type Batch []*Buffer

// Release returns every remaining slot to the pool and settles the
// slab's lease accounting with a single decrement. Slots already
// transferred (nil) are skipped — their new owners release them
// individually. The slab's variable must not be used again until
// Refill restores it.
func (b Batch) Release() {
	k := 0
	for i, buf := range b {
		if buf == nil {
			continue
		}
		buf.recycle()
		b[i] = nil
		k++
	}
	if k > 0 {
		outstanding.Add(int64(-k))
	}
}

// Refill re-leases every empty (nil) slot from the pool under one
// accounting increment, restoring the slab to full strength for the
// next batched read. Slots still held are left untouched.
func (b Batch) Refill() {
	k := 0
	for i, buf := range b {
		if buf != nil {
			continue
		}
		b[i] = get()
		k++
	}
	if k > 0 {
		outstanding.Add(int64(k))
	}
}

// Resize returns the slab at n slots. Shrinking releases the dropped
// tail slots (one decrement, as Release); growing adds empty slots for
// the next Refill to lease, reusing the slab's storage when an earlier,
// larger size left the capacity behind. The caller owns the result in
// place of the receiver.
func (b Batch) Resize(n int) Batch {
	if n <= len(b) {
		b[n:].Release()
		return b[:n]
	}
	grown := append(b, make(Batch, n-len(b))...)
	if len(b) > 0 && &grown[0] != &b[0] {
		clear(b) // the storage left behind must not keep the slab's buffers reachable
	}
	return grown
}
