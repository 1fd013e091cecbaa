package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketUpperBound checks the le edges: each bucket's upper bound
// still maps into the bucket, the next value maps past it, and the
// edges strictly increase.
func TestBucketUpperBound(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < NumBuckets; i++ {
		ub := BucketUpperBound(i)
		if int64(ub) <= prev {
			t.Fatalf("bucket %d: upper bound %d not increasing (prev %d)", i, ub, prev)
		}
		prev = int64(ub)
		if ub > 1<<62 {
			break // past the nanosecond range the histogram can see
		}
		if got := Bucket(ub); got != i {
			t.Fatalf("Bucket(upper(%d)=%d) = %d", i, ub, got)
		}
		if got := Bucket(ub + 1); got != i+1 {
			t.Fatalf("Bucket(upper(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
}

// snapshotOf records obs into a fresh histogram and snapshots it.
func snapshotOf(obs ...time.Duration) HistSnapshot {
	h := NewHist()
	for _, d := range obs {
		h.Record(d)
	}
	var s HistSnapshot
	h.Read(&s)
	return s
}

// TestHistQuantiles: quantiles of a uniform 1..1000µs run land within
// the bucket error, and a merged-in outlier becomes the max and q=1.
func TestHistQuantiles(t *testing.T) {
	obs := make([]time.Duration, 0, 1000)
	for i := 1; i <= 1000; i++ {
		obs = append(obs, time.Duration(i)*time.Microsecond)
	}
	s := snapshotOf(obs...)
	check := func(q float64, want time.Duration) {
		t.Helper()
		got := time.Duration(s.Quantile(q))
		lo, hi := want*9/10, want*11/10
		if got < lo || got > hi {
			t.Fatalf("Quantile(%g) = %v, want within 10%% of %v", q, got, want)
		}
	}
	check(0.50, 500*time.Microsecond)
	check(0.95, 950*time.Microsecond)
	check(0.99, 990*time.Microsecond)
	if time.Duration(s.MaxNs) != time.Millisecond {
		t.Fatalf("Max = %v, want 1ms", time.Duration(s.MaxNs))
	}

	o := snapshotOf(5 * time.Millisecond)
	s.Merge(&o)
	if s.Count != 1001 || time.Duration(s.MaxNs) != 5*time.Millisecond {
		t.Fatalf("after merge: count %d max %v", s.Count, time.Duration(s.MaxNs))
	}
	if time.Duration(s.Quantile(1)) != 5*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want max", time.Duration(s.Quantile(1)))
	}
}

// TestQuantileSmallN pins the small-n clamps: with bucket-midpoint
// representatives, low quantiles on a handful of samples could report
// values above every observation but the max (or below the min). Every
// quantile must land inside [min, max].
func TestQuantileSmallN(t *testing.T) {
	qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	cases := [][]time.Duration{
		{1000},
		{900, 1100},
		{100, 5000, 5001},
		{70, 900, 901, 40000},
	}
	for _, obs := range cases {
		s := snapshotOf(obs...)
		min, max := obs[0], obs[0]
		for _, d := range obs {
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if time.Duration(s.MinNs) != min || time.Duration(s.MaxNs) != max {
			t.Fatalf("n=%d: Min/Max = %v/%v, want %v/%v", len(obs), time.Duration(s.MinNs), time.Duration(s.MaxNs), min, max)
		}
		for _, q := range qs {
			got := time.Duration(s.Quantile(q))
			if got < min || got > max {
				t.Errorf("n=%d q=%v: quantile %v outside recorded range [%v, %v]", len(obs), q, got, min, max)
			}
		}
		// A single observation must be reported exactly at any quantile.
		if len(obs) == 1 && time.Duration(s.Quantile(0.5)) != obs[0] {
			t.Errorf("n=1: Quantile(0.5) = %v, want %v", time.Duration(s.Quantile(0.5)), obs[0])
		}
	}
	// Merge must propagate the min clamp too.
	a, b := snapshotOf(10*time.Microsecond), snapshotOf(90*time.Microsecond)
	a.Merge(&b)
	if a.MinNs != 10_000 || a.MaxNs != 90_000 {
		t.Fatalf("merged Min/Max = %d/%d ns", a.MinNs, a.MaxNs)
	}
	if q := a.Quantile(0); q < a.MinNs || q > a.MaxNs {
		t.Fatalf("merged Quantile(0) = %d outside [%d, %d]", q, a.MinNs, a.MaxNs)
	}
}

// TestEmptyHistQuantile: the empty histogram stays at zero.
func TestEmptyHistQuantile(t *testing.T) {
	s := snapshotOf()
	if s.Quantile(0.5) != 0 || s.MinNs != 0 || s.MaxNs != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram reports non-zero statistics")
	}
}

// TestHotPathZeroAlloc pins the acceptance criterion: a recorded
// observation — histogram, counter or gauge — allocates nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	h := NewHist()
	var c Counter
	var g Gauge
	ns := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.RecordNs(ns)
		c.Inc(3)
		g.Add(1)
		ns += 1237
	}); n != 0 {
		t.Fatalf("hot-path record allocates %.1f objects/op, want 0", n)
	}
}

// TestCounterConcurrent sums striped adds across goroutines.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 32, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter sums to %d, want %d", got, workers*per)
	}
}

// TestHistConcurrent hammers one histogram from many goroutines and
// checks nothing is lost: bucket sum, count and value sum all match.
func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	const workers, per = 16, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.RecordNs(rng.Int63n(1 << 30))
			}
		}(w)
	}
	wg.Wait()
	var s HistSnapshot
	h.Read(&s)
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	var rebuilt uint64
	for _, c := range s.Counts {
		rebuilt += c
	}
	if rebuilt != s.Count {
		t.Fatalf("bucket sum %d != count %d", rebuilt, s.Count)
	}
	if s.MinNs < 0 || s.MaxNs >= 1<<30 || s.MinNs > s.MaxNs {
		t.Fatalf("implausible range [%d, %d]", s.MinNs, s.MaxNs)
	}
}

// TestRecordNNs pins the weighted record to n individual records: same
// buckets, count, sum, min, max — and therefore identical quantiles.
func TestRecordNNs(t *testing.T) {
	a, b := NewHist(), NewHist()
	vals := []int64{0, 1, 17, 300, 4096, 1 << 20, 1<<40 + 7}
	ns := []uint64{1, 2, 3, 64, 1000, 5, 1}
	for i, v := range vals {
		a.RecordNNs(v, ns[i])
		for j := uint64(0); j < ns[i]; j++ {
			b.RecordNs(v)
		}
	}
	a.RecordNNs(99, 0) // weight 0 must be a no-op
	var sa, sb HistSnapshot
	a.Read(&sa)
	b.Read(&sb)
	if sa != sb {
		t.Fatalf("weighted and individual records diverge:\n%+v\n%+v", sa, sb)
	}
}

// TestSnapshotSubMerge checks interval deltas and unions.
func TestSnapshotSubMerge(t *testing.T) {
	h := NewHist()
	for i := int64(0); i < 1000; i++ {
		h.RecordNs(i * 1000)
	}
	var first HistSnapshot
	h.Read(&first)
	for i := int64(0); i < 500; i++ {
		h.RecordNs(i * 2000)
	}
	var second HistSnapshot
	h.Read(&second)

	delta := second
	delta.Sub(&first)
	if delta.Count != 500 {
		t.Fatalf("interval count %d, want 500", delta.Count)
	}
	if delta.Quantile(1) > second.MaxNs {
		t.Fatalf("interval quantile above cumulative max")
	}

	var a, b HistSnapshot
	ha, hb := NewHist(), NewHist()
	ha.RecordNs(10)
	ha.RecordNs(100)
	hb.RecordNs(5)
	hb.RecordNs(1_000_000)
	ha.Read(&a)
	hb.Read(&b)
	a.Merge(&b)
	if a.Count != 4 || a.MinNs != 5 || a.MaxNs != 1_000_000 {
		t.Fatalf("merge: count=%d min=%d max=%d", a.Count, a.MinNs, a.MaxNs)
	}
	var empty HistSnapshot
	empty.Merge(&b)
	if empty.MinNs != 5 || empty.MaxNs != 1_000_000 || empty.Count != 2 {
		t.Fatalf("merge into empty: %+v", empty)
	}
}

// TestRing checks capacity, eviction and ordering.
func TestRing(t *testing.T) {
	r := NewRing(4)
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring reports a last sample")
	}
	for i := 1; i <= 6; i++ {
		r.Push(Sample{Ops: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	last, ok := r.Last()
	if !ok || last.Ops != 6 {
		t.Fatalf("last = %+v, want Ops=6", last)
	}
	got := r.Snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("snapshot len %d", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 3); s.Ops != want {
			t.Fatalf("snapshot[%d].Ops = %d, want %d (oldest first)", i, s.Ops, want)
		}
	}
}

// TestGauge checks the trivial contract (and that Set overrides Adds).
func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if g.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Load())
	}
	g.Set(42)
	if g.Load() != 42 {
		t.Fatalf("gauge = %d, want 42", g.Load())
	}
}
