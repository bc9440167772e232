// Package hist implements the lock-free latency histogram behind the
// framework's staged latency metrics (Metrics.Latency, the Prometheus
// exposition, starlink-bench -latency-hist).
//
// The layout is log-linear (HDR-style): each power-of-two octave is cut
// into 16 linear sub-buckets, giving a worst-case relative error of
// 2^-4 = 6.25% across the whole range — nanoseconds to tens of
// seconds — in a fixed 544-bucket table. Recording is wait-free: the
// bucket table is sharded into four independent arrays of atomic
// counters and a recording goroutine picks its shard by hashing the
// recorded value, so concurrent sessions rarely contend on one cache
// line. Record performs no allocation and no locking; TestRecordAllocs holds
// it at zero.
//
// Snapshot merges the shards into an immutable value that answers
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

	shardBits  = 2
	shardCount = 1 << shardBits
)

// shard is one independently updated bucket table. Each recording
// goroutine lands on a shard by value hash; readers merge all shards.
type shard struct {
	counts [nBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Histogram is a lock-free log-linear duration histogram. The zero
// value is ready to use; all methods are safe for concurrent use. A nil
// *Histogram is a valid no-op recorder. The 17 KiB bucket table is
// allocated by the first Record, so a histogram nothing records costs
// a pointer.
type Histogram struct {
	shards atomic.Pointer[[shardCount]shard]
}

// Record adds one duration sample. Negative durations clamp to zero,
// durations beyond ~137s clamp into the last bucket. Wait-free: two
// atomic adds on a shard selected by hashing the value.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	t := h.shards.Load()
	if t == nil {
		h.shards.CompareAndSwap(nil, new([shardCount]shard))
		t = h.shards.Load()
	}
	sh := &t[(v*0x9e3779b97f4a7c15)>>(64-shardBits)]
	sh.counts[bucketIndex(v)].Add(1)
	sh.sum.Add(v)
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

// Snapshot is an immutable merged view of a histogram, safe to copy and
// to query from any goroutine.
type Snapshot struct {
	// Count is the total number of recorded samples.
	Count uint64
	// Sum is the sum of all recorded samples (clamped values).
	Sum time.Duration

	counts [nBuckets]uint64
}

// Snapshot merges the shards into an immutable view. Concurrent
// recording keeps going; the snapshot is a consistent-enough cut for
// metrics (each bucket is read atomically, the cut across buckets is
// not a single instant).
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	t := h.shards.Load()
	if t == nil {
		return s
	}
	for i := range t {
		sh := &t[i]
		s.Sum += time.Duration(sh.sum.Load())
		for b := range sh.counts {
			if c := sh.counts[b].Load(); c != 0 {
				s.counts[b] += c
				s.Count += c
			}
		}
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

// CumulativeAt counts the samples recorded in buckets that lie wholly
// at or below d — the count of samples ≤ d, exact whenever d+1 is a
// bucket boundary (every Ladder bound qualifies), otherwise rounded
// down by at most one sub-bucket.
func (s Snapshot) CumulativeAt(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	v := uint64(d)
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		if _, hi := bucketBounds(i); hi > v {
			break
		}
		cum += s.counts[i]
	}
	return cum
}

// Cumulative evaluates CumulativeAt for each bound, in order.
func (s Snapshot) Cumulative(bounds []time.Duration) []uint64 {
	out := make([]uint64, len(bounds))
	for i, b := range bounds {
		out[i] = s.CumulativeAt(b)
	}
	return out
}

// Ladder returns the shared export bucket bounds: thirteen
// octave-aligned steps from ~1µs (2^10−1 ns) to ~17s (2^34−1 ns), every
// fourth power of two. Each bound is the exact upper edge of a bucket,
// so CumulativeAt is exact at every rung; production exposition and
// starlink-bench both use it, keeping their bucket boundaries in
// agreement.
func Ladder() []time.Duration {
	out := make([]time.Duration, 0, (34-10)/2+1)
	for e := 10; e <= 34; e += 2 {
		out = append(out, time.Duration(uint64(1)<<e-1))
	}
	return out
}
