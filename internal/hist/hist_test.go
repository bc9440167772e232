package hist

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexCoversRange checks the index function is monotone and
// that every value falls inside its bucket's bounds.
func TestBucketIndexCoversRange(t *testing.T) {
	prev := -1
	for _, v := range sampleValues() {
		i := bucketIndex(v)
		if i < 0 || i >= nBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		lo, hi := bucketBounds(i)
		cv := v
		if cv > maxVal {
			cv = maxVal
		}
		if cv < lo || cv > hi {
			t.Fatalf("value %d (clamped %d) outside bucket %d bounds [%d, %d]", v, cv, i, lo, hi)
		}
	}
}

// TestBucketBoundsContiguous checks buckets tile the value range with
// no gaps or overlaps.
func TestBucketBoundsContiguous(t *testing.T) {
	var next uint64
	for i := 0; i < nBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if hi < lo {
			t.Fatalf("bucket %d bounds inverted [%d, %d]", i, lo, hi)
		}
		next = hi + 1
	}
	if next != maxVal+1 {
		t.Fatalf("buckets end at %d, want %d", next-1, maxVal)
	}
}

func sampleValues() []uint64 {
	vals := []uint64{0, 1, 15, 16, 17, 31, 32, 1000, 1023, 1024, maxVal, maxVal + 1, maxVal * 2}
	for e := 4; e <= 40; e++ {
		v := uint64(1) << e
		vals = append(vals, v-1, v, v+1)
	}
	// Sorted insertion order matters for the monotonicity check.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals
}

func TestRecordAndQuantile(t *testing.T) {
	h := &Histogram{}
	const n = 100_000
	rng := rand.New(rand.NewSource(7))
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		h.Record(d)
		sum += d
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("Count = %d, want %d", s.Count, n)
	}
	if s.Sum != sum {
		t.Fatalf("Sum = %v, want %v", s.Sum, sum)
	}
	// Uniform [0, 10ms): p50 ≈ 5ms, p99 ≈ 9.9ms, within the 6.25%
	// resolution contract plus sampling noise.
	checkQuantile(t, s, 0.50, 5*time.Millisecond)
	checkQuantile(t, s, 0.90, 9*time.Millisecond)
	checkQuantile(t, s, 0.99, 9900*time.Microsecond)
}

func checkQuantile(t *testing.T, s Snapshot, q float64, want time.Duration) {
	t.Helper()
	got := s.Quantile(q)
	lo := time.Duration(float64(want) * 0.90)
	hi := time.Duration(float64(want) * 1.10)
	if got < lo || got > hi {
		t.Errorf("Quantile(%v) = %v, want within [%v, %v]", q, got, lo, hi)
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty Snapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	h := &Histogram{}
	h.Record(100 * time.Microsecond)
	s := h.Snapshot()
	for _, q := range []float64{0.0, 0.5, 1.0} {
		got := s.Quantile(q)
		if got < 100*time.Microsecond || got > time.Duration(float64(100*time.Microsecond)*1.07) {
			t.Fatalf("single-sample Quantile(%v) = %v", q, got)
		}
	}
	h.Record(-5 * time.Second) // clamps to 0
	if got := h.Snapshot().Count; got != 2 {
		t.Fatalf("Count after negative record = %d, want 2", got)
	}
}

func TestCumulativeAtLadderExact(t *testing.T) {
	h := &Histogram{}
	bounds := Ladder()
	if len(bounds) != 13 {
		t.Fatalf("Ladder has %d bounds, want 13", len(bounds))
	}
	// One sample exactly at each bound, one just above.
	for _, b := range bounds {
		h.Record(b)
		h.Record(b + 1)
	}
	s := h.Snapshot()
	for i, b := range bounds {
		// Bounds are bucket upper edges, so counts at each rung are
		// exact: all samples ≤ b.
		want := uint64(2*i + 1)
		if got := s.CumulativeAt(b); got != want {
			t.Errorf("CumulativeAt(%v) = %d, want %d", b, got, want)
		}
	}
	if got := s.CumulativeAt(-1); got != 0 {
		t.Errorf("CumulativeAt(-1) = %d, want 0", got)
	}
	cum := s.Cumulative(bounds)
	for i, b := range bounds {
		if cum[i] != s.CumulativeAt(b) {
			t.Errorf("Cumulative[%d] = %d, want %d", i, cum[i], s.CumulativeAt(b))
		}
	}
}

func TestMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		b.Record(time.Duration(i) * time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != sa.Count+sb.Count {
		t.Fatalf("merged Count = %d, want %d", merged.Count, sa.Count+sb.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged Sum = %v, want %v", merged.Sum, sa.Sum+sb.Sum)
	}
	for _, bound := range Ladder() {
		want := sa.CumulativeAt(bound) + sb.CumulativeAt(bound)
		if got := merged.CumulativeAt(bound); got != want {
			t.Fatalf("merged CumulativeAt(%v) = %d, want %d", bound, got, want)
		}
	}
}

func TestNilHistogram(t *testing.T) {
	var h *Histogram
	h.Record(time.Millisecond) // must not panic
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nil Snapshot = %+v, want zero", s)
	}
}

// TestConcurrentRecord exercises sharded recording under the race
// detector and checks no sample is lost.
func TestConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot().Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

// TestRecordAllocs holds Record, which every session stage calls, at
// zero allocations.
func TestRecordAllocs(t *testing.T) {
	h := &Histogram{}
	d := 123 * time.Microsecond
	if n := testing.AllocsPerRun(1000, func() { h.Record(d) }); n != 0 {
		t.Fatalf("Record allocates %v per op, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Record(d) }); n != 0 {
		t.Fatalf("nil Record allocates %v per op, want 0", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkRecordParallel(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			h.Record(d)
			d += 37 * time.Microsecond
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < 10_000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}
