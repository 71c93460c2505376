// Package stats aggregates the measurements the paper reports: average
// memory read and write latencies per architecture (Fig. 5), WOM-cache hit
// rates (Fig. 6), and the service-class breakdowns (fast RESET-only writes
// versus α-writes, refresh activity) that explain them.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Latency accumulates request latencies in nanoseconds.
//
// A Latency is not safe for concurrent use: the simulator is single-threaded
// per run, so Observe/Merge/Reset carry no synchronization. Callers that
// aggregate across goroutines (e.g. engine wall-time metrics) must hold
// their own lock.
type Latency struct {
	Count uint64
	Sum   int64
	Min   int64
	Max   int64
	// histogram of log2-spaced buckets: bucket i counts latencies in
	// [2^i, 2^(i+1)). Bucket 0 also absorbs latency 0, and the last bucket
	// everything from 2^(numBuckets-1) up.
	buckets [numBuckets]uint64
}

const numBuckets = 40

// Observe records one latency sample.
func (l *Latency) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if l.Count == 0 || ns < l.Min {
		l.Min = ns
	}
	if ns > l.Max {
		l.Max = ns
	}
	l.Count++
	l.Sum += ns
	l.buckets[bucketOf(ns)]++
}

// bucketOf returns the histogram bucket of a latency ns ≥ 0: ⌊log2 ns⌋,
// with 0 and 1 in bucket 0 and everything from 2^39 up in the last bucket.
func bucketOf(ns int64) int {
	return min(max(bits.Len64(uint64(ns))-1, 0), numBuckets-1)
}

// Mean returns the average latency, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) from the
// log-spaced histogram: the top of the first bucket whose cumulative count
// reaches q.
func (l *Latency) Quantile(q float64) int64 {
	if l.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(l.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range l.buckets {
		cum += c
		if cum >= target {
			return int64(1) << uint(i+1)
		}
	}
	return l.Max
}

// Merge folds other into l.
func (l *Latency) Merge(other *Latency) {
	if other.Count == 0 {
		return
	}
	if l.Count == 0 || other.Min < l.Min {
		l.Min = other.Min
	}
	if other.Max > l.Max {
		l.Max = other.Max
	}
	l.Count += other.Count
	l.Sum += other.Sum
	for i := range l.buckets {
		l.buckets[i] += other.buckets[i]
	}
}

// Reset returns l to the empty state, as if freshly allocated, so a caller
// rolling over epochs can reuse one histogram instead of allocating per
// epoch.
func (l *Latency) Reset() {
	*l = Latency{}
}

// String summarizes the distribution.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%.1fns min=%d max=%d p95≤%d", l.Count, l.Mean(), l.Min, l.Max, l.Quantile(0.95))
}

// ServiceClass labels how a request was serviced, the breakdown behind the
// paper's latency differences.
type ServiceClass int

const (
	// ReadArray is a read that had to activate its row (row-buffer miss).
	ReadArray ServiceClass = iota
	// ReadRowHit is a read serviced from the open row buffer.
	ReadRowHit
	// ReadCacheHit is a read serviced by the WOM-cache (WCPCM only).
	ReadCacheHit
	// WriteBaseline is a conventional full row write (SET on the path) —
	// every write of PCM without WOM-codes, and WCPCM victim write-backs.
	WriteBaseline
	// WriteFast is an in-budget WOM-code row write (RESET-only).
	WriteFast
	// WriteAlpha is the row write issued after the rewrite limit — the
	// paper's α-write, as slow as a baseline write.
	WriteAlpha
	// WriteCacheHit is a write absorbed by the WOM-cache.
	WriteCacheHit
	// WriteCacheMiss is a write that displaced a WOM-cache victim.
	WriteCacheMiss
	numServiceClasses
)

// String names the class.
func (c ServiceClass) String() string {
	names := [...]string{
		"read-array", "read-row-hit", "read-cache-hit",
		"write-baseline", "write-fast", "write-alpha",
		"write-cache-hit", "write-cache-miss",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("ServiceClass(%d)", int(c))
}

// Run collects all measurements of one simulation run.
type Run struct {
	// Arch and Workload label the run.
	Arch, Workload string
	// ReadLatency and WriteLatency measure demand requests (arrival to
	// completion, queueing included). Internal traffic (cache victim
	// write-backs, refreshes) is excluded from latency but counted below.
	ReadLatency, WriteLatency Latency
	// Classes counts service events per class, internal traffic included.
	// Reads contribute read-array/read-row-hit/read-cache-hit; writes
	// contribute write-baseline/fast/alpha (main arrays) or
	// write-cache-hit/miss (WCPCM demand writes, whose underlying cache
	// array write additionally counts as write-fast/alpha), so WCPCM class
	// totals exceed the request count.
	Classes [numServiceClasses]uint64
	// Refreshes counts completed PCM-refresh row operations; RefreshAborts
	// counts refreshes preempted by demand traffic (write pausing).
	Refreshes, RefreshAborts uint64
	// CacheHits/CacheMisses count WOM-cache lookups (WCPCM only); reads
	// and writes both probe.
	CacheHits, CacheMisses uint64
	// VictimWrites counts write-back requests spawned by cache misses.
	VictimWrites uint64
	// WriteCancels counts in-service writes aborted by arriving reads
	// (write cancellation scheduling, the paper's [7]).
	WriteCancels uint64
	// Events counts discrete-event steps the simulator executed for this
	// run — request arrivals plus every scheduled event handled (service
	// completions, refresh ticks, refresh completions). It is the
	// denominator of the host-time throughput figures (simulated-events/sec)
	// internal/perfmon reports.
	Events uint64
	// SimulatedNs is the completion time of the last request.
	SimulatedNs int64
}

// Class increments a service-class counter.
func (r *Run) Class(c ServiceClass) { r.Classes[c]++ }

// CacheHitRate returns hits/(hits+misses), or 0 without lookups.
func (r *Run) CacheHitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// AlphaFraction returns the fraction of WOM array row writes that were
// α-writes — the §3.2 bottleneck PCM-refresh attacks.
func (r *Run) AlphaFraction() float64 {
	writes := r.Classes[WriteFast] + r.Classes[WriteAlpha]
	if writes == 0 {
		return 0
	}
	return float64(r.Classes[WriteAlpha]) / float64(writes)
}

// Summary renders a one-run report.
func (r *Run) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s:\n", r.Arch, r.Workload)
	fmt.Fprintf(&b, "  reads : %s\n", r.ReadLatency.String())
	fmt.Fprintf(&b, "  writes: %s\n", r.WriteLatency.String())
	for c := ServiceClass(0); c < numServiceClasses; c++ {
		if r.Classes[c] > 0 {
			fmt.Fprintf(&b, "  %-16s %d\n", c.String(), r.Classes[c])
		}
	}
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "  cache hit rate: %.1f%%\n", 100*r.CacheHitRate())
	}
	if r.Refreshes+r.RefreshAborts > 0 {
		fmt.Fprintf(&b, "  refreshes: %d (%d aborted)\n", r.Refreshes, r.RefreshAborts)
	}
	if r.WriteCancels > 0 {
		fmt.Fprintf(&b, "  write cancellations: %d\n", r.WriteCancels)
	}
	return b.String()
}

// Normalized returns this run's mean latencies divided by a baseline run's,
// the form Fig. 5 plots.
func (r *Run) Normalized(base *Run) (write, read float64) {
	if m := base.WriteLatency.Mean(); m > 0 {
		write = r.WriteLatency.Mean() / m
	}
	if m := base.ReadLatency.Mean(); m > 0 {
		read = r.ReadLatency.Mean() / m
	}
	return write, read
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries;
// it is the conventional cross-benchmark average for normalized metrics.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (the paper's "on average across
// the benchmarks").
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
