package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyBasics(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Quantile(0.5) != 0 {
		t.Error("empty latency not zero")
	}
	for _, v := range []int64{40, 150, 40, 150} {
		l.Observe(v)
	}
	if l.Count != 4 || l.Sum != 380 {
		t.Errorf("count/sum = %d/%d", l.Count, l.Sum)
	}
	if l.Mean() != 95 {
		t.Errorf("mean = %v, want 95", l.Mean())
	}
	if l.Min != 40 || l.Max != 150 {
		t.Errorf("min/max = %d/%d", l.Min, l.Max)
	}
	if !strings.Contains(l.String(), "n=4") {
		t.Errorf("String() = %q", l.String())
	}
}

func TestLatencyNegativeClamped(t *testing.T) {
	var l Latency
	l.Observe(-10)
	if l.Min != 0 || l.Sum != 0 {
		t.Error("negative sample not clamped")
	}
}

// TestLatencyBucketMatchesLoop: bucketOf places every latency where the
// halving loop it replaced did: 0 and 1 in bucket 0, ⌊log2 ns⌋ above, and
// everything from 2^39 up in the last bucket.
func TestLatencyBucketMatchesLoop(t *testing.T) {
	loop := func(ns int64) int {
		b := 0
		for v := ns; v > 1 && b < numBuckets-1; v >>= 1 {
			b++
		}
		return b
	}
	cases := []int64{0, 1, 2, 3, 1 << 39, 1 << 40, math.MaxInt64}
	for k := 1; k < 63; k++ {
		cases = append(cases, 1<<k-1, 1<<k)
	}
	for _, ns := range cases {
		if got, want := bucketOf(ns), loop(ns); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", ns, got, want)
		}
	}
	if got := bucketOf(math.MaxInt64); got != numBuckets-1 {
		t.Errorf("bucketOf(MaxInt64) = %d, want the last bucket %d", got, numBuckets-1)
	}
}

func TestLatencyQuantile(t *testing.T) {
	var l Latency
	for i := 0; i < 99; i++ {
		l.Observe(40)
	}
	l.Observe(5000)
	// p50 must bound 40; p995+ must reach the outlier's bucket.
	if q := l.Quantile(0.5); q < 40 || q > 64 {
		t.Errorf("p50 bound = %d", q)
	}
	if q := l.Quantile(1.0); q < 5000 {
		t.Errorf("p100 bound = %d, want ≥ 5000", q)
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b Latency
	a.Observe(10)
	a.Observe(20)
	b.Observe(5)
	b.Observe(40)
	a.Merge(&b)
	if a.Count != 4 || a.Sum != 75 || a.Min != 5 || a.Max != 40 {
		t.Errorf("merged = %+v", a)
	}
	var empty Latency
	a.Merge(&empty)
	if a.Count != 4 {
		t.Error("merging empty changed count")
	}
	empty.Merge(&a)
	if empty.Count != 4 || empty.Min != 5 {
		t.Errorf("merge into empty = %+v", empty)
	}
}

func TestLatencyReset(t *testing.T) {
	var l Latency
	for _, ns := range []int64{5, 10, 1000} {
		l.Observe(ns)
	}
	l.Reset()
	if l.Count != 0 || l.Sum != 0 || l.Min != 0 || l.Max != 0 {
		t.Errorf("after Reset = %+v, want zero value", l)
	}
	if got := l.Quantile(0.95); got != 0 {
		t.Errorf("Quantile after Reset = %d, want 0 (histogram must clear)", got)
	}
	// A reset histogram behaves exactly like a fresh one.
	l.Observe(7)
	var fresh Latency
	fresh.Observe(7)
	if l != fresh {
		t.Errorf("reset-then-observe = %+v, fresh = %+v", l, fresh)
	}
	// Merging a reset (empty) histogram is a no-op.
	var a Latency
	a.Observe(42)
	a.Merge(&l)
	if a.Count != 2 || a.Min != 7 || a.Max != 42 {
		t.Errorf("merge after reset = %+v", a)
	}
}

// TestLatencyQuantileMonotone property: quantile bounds are monotone in q
// and always ≥ min observed.
func TestLatencyQuantileMonotone(t *testing.T) {
	prop := func(samples []uint16) bool {
		var l Latency
		for _, s := range samples {
			l.Observe(int64(s))
		}
		if len(samples) == 0 {
			return true
		}
		prev := int64(0)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
			v := l.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestServiceClassNames(t *testing.T) {
	want := map[ServiceClass]string{
		ReadArray:      "read-array",
		ReadCacheHit:   "read-cache-hit",
		WriteBaseline:  "write-baseline",
		WriteFast:      "write-fast",
		WriteAlpha:     "write-alpha",
		WriteCacheHit:  "write-cache-hit",
		WriteCacheMiss: "write-cache-miss",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if !strings.Contains(ServiceClass(99).String(), "99") {
		t.Error("unknown class rendering")
	}
}

func TestRunDerivedMetrics(t *testing.T) {
	var r Run
	if r.CacheHitRate() != 0 || r.AlphaFraction() != 0 {
		t.Error("empty run not zero")
	}
	r.CacheHits, r.CacheMisses = 3, 1
	if r.CacheHitRate() != 0.75 {
		t.Errorf("hit rate = %v", r.CacheHitRate())
	}
	r.Class(WriteFast)
	r.Class(WriteFast)
	r.Class(WriteFast)
	r.Class(WriteAlpha)
	if r.AlphaFraction() != 0.25 {
		t.Errorf("alpha fraction = %v", r.AlphaFraction())
	}
	r.Refreshes = 2
	s := r.Summary()
	for _, want := range []string{"write-fast", "write-alpha", "cache hit rate", "refreshes"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestNormalized(t *testing.T) {
	var base, r Run
	base.WriteLatency.Observe(100)
	base.ReadLatency.Observe(50)
	r.WriteLatency.Observe(80)
	r.ReadLatency.Observe(45)
	w, rd := r.Normalized(&base)
	if math.Abs(w-0.8) > 1e-12 || math.Abs(rd-0.9) > 1e-12 {
		t.Errorf("normalized = (%v, %v)", w, rd)
	}
	var empty Run
	w, rd = r.Normalized(&empty)
	if w != 0 || rd != 0 {
		t.Error("normalizing against empty base should yield 0")
	}
}

func TestAggregates(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if g := GeoMean([]float64{4, 1}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Errorf("GeoMean of non-positives = %v", g)
	}
	s := Sorted([]float64{3, 1, 2})
	if s[0] != 1 || s[2] != 3 {
		t.Errorf("Sorted = %v", s)
	}
}

// TestLatencyMergeEqualsCombined property: merging two collectors is
// identical to observing the union.
func TestLatencyMergeEqualsCombined(t *testing.T) {
	prop := func(a, b []uint16) bool {
		var la, lb, all Latency
		for _, v := range a {
			la.Observe(int64(v))
			all.Observe(int64(v))
		}
		for _, v := range b {
			lb.Observe(int64(v))
			all.Observe(int64(v))
		}
		la.Merge(&lb)
		return la == all
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
