// Package hist implements the lock-free latency histogram behind the
// framework's staged latency metrics (Metrics.Latency and the
// Prometheus exposition).
//
// The layout is log-linear (HDR-style): each power-of-two octave is cut
// into 16 linear sub-buckets, giving a worst-case relative error of
// 2^-4 = 6.25% across the whole range — nanoseconds to tens of
// seconds — in a fixed 544-bucket table of atomic counters plus the
// sum. Record is wait-free, two atomic adds, and performs no allocation
// and no locking once the table exists; TestRecordAllocs holds it at
// zero.
//
// Snapshot copies the table into an immutable value that answers
// quantile and cumulative-count queries. Export code (the Prometheus
// writer, bench tables) uses the shared Ladder bounds so every consumer
// agrees on bucket boundaries.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits is the log2 of the linear sub-buckets per octave: the
	// resolution contract (relative error ≤ 2^-subBits).
	subBits  = 4
	subCount = 1 << subBits

	// maxExp is the largest indexed octave exponent: values at or above
	// 2^(maxExp+1) ns (~137 s) clamp into the last bucket.
	maxExp = 36
	maxVal = uint64(1)<<(maxExp+1) - 1

	nBuckets = subCount + (maxExp-subBits+1)*subCount
)

// table is the bucket counters and the sum: 4 360 B.
type table struct {
	counts [nBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Histogram is a lock-free log-linear duration histogram. The zero
// value is ready to use; all methods are safe for concurrent use. The
// bucket table is allocated by the first Record, so a histogram nothing
// records costs a pointer.
type Histogram struct {
	t atomic.Pointer[table]
}

// Record adds one duration sample. A negative duration is recorded as
// zero; one beyond ~137s lands in the last bucket and adds to the sum
// in full. Wait-free: two atomic adds.
func (h *Histogram) Record(d time.Duration) {
	v := uint64(max(d, 0))
	t := h.t.Load()
	if t == nil {
		h.t.CompareAndSwap(nil, new(table))
		t = h.t.Load()
	}
	t.counts[bucketIndex(v)].Add(1)
	t.sum.Add(v)
}

// bucketIndex maps a clamped sample value to its bucket: values below
// subCount get unit buckets, larger values log-linear octave buckets.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	if v > maxVal {
		v = maxVal
	}
	e := bits.Len64(v) - 1
	return (e-subBits+1)*subCount + int((v>>(e-subBits))&(subCount-1))
}

// bucketBounds returns the inclusive value range [lo, hi] covered by
// bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < subCount {
		return uint64(i), uint64(i)
	}
	e := i>>subBits + subBits - 1
	width := uint64(1) << (e - subBits)
	lo = uint64(1)<<e + uint64(i&(subCount-1))*width
	return lo, lo + width - 1
}

// Snapshot is an immutable copy of a histogram, safe to copy and to
// query from any goroutine.
type Snapshot struct {
	// Count is the total number of recorded samples.
	Count uint64
	// Sum is the sum of all recorded samples, a negative one counted
	// as zero.
	Sum time.Duration

	counts [nBuckets]uint64
}

// Snapshot copies the table into an immutable view. Concurrent
// recording keeps going; the snapshot is a consistent-enough cut for
// metrics (each bucket is read atomically, the cut across buckets is
// not a single instant).
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	t := h.t.Load()
	if t == nil {
		return s
	}
	s.Sum = time.Duration(t.sum.Load())
	for b := range t.counts {
		c := t.counts[b].Load()
		s.counts[b] = c
		s.Count += c
	}
	return s
}

// Merge adds another snapshot into s (per-case → aggregate rollups).
func (s *Snapshot) Merge(o Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
}

// Quantile returns the value at quantile q (0 < q ≤ 1) as the upper
// bound of the bucket holding that rank — at most one resolution step
// (6.25%) above the true sample. Returns 0 on an empty snapshot.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			_, hi := bucketBounds(i)
			return time.Duration(hi)
		}
	}
	_, hi := bucketBounds(nBuckets - 1)
	return time.Duration(hi)
}

// Cumulative counts, for each bound in ascending order, the samples
// recorded in buckets that lie wholly at or below it — the count of
// samples ≤ bound, exact whenever bound+1 is a bucket boundary (every
// Ladder bound qualifies), otherwise rounded down by at most one
// sub-bucket. One pass over the buckets serves every bound.
func (s Snapshot) Cumulative(bounds []time.Duration) []uint64 {
	out := make([]uint64, len(bounds))
	var cum uint64
	i := 0
	for j, d := range bounds {
		if d < 0 {
			continue
		}
		for ; i < nBuckets; i++ {
			if _, hi := bucketBounds(i); hi > uint64(d) {
				break
			}
			cum += s.counts[i]
		}
		out[j] = cum
	}
	return out
}

// Ladder returns the shared export bucket bounds: thirteen
// octave-aligned steps from ~1µs (2^10−1 ns) to ~17s (2^34−1 ns), every
// fourth power of two. Each bound is the exact upper edge of a bucket,
// so Cumulative is exact at every rung; production exposition and
// starlink-bench both use it, keeping their bucket boundaries in
// agreement.
func Ladder() []time.Duration {
	out := make([]time.Duration, 0, (34-10)/2+1)
	for e := 10; e <= 34; e += 2 {
		out = append(out, time.Duration(uint64(1)<<e-1))
	}
	return out
}
