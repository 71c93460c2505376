package tsdb

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrBadQuery reports an invalid range query; the HTTP layer maps it to
// 400.
var ErrBadQuery = errors.New("tsdb: bad query")

// MaxQueryPoints bounds a range query's output grid, (end−start)/step, as
// Prometheus does. The grid is walked per matching series under the
// store's lock, which every finished job's ObserveJob also takes, so an
// unbounded grid would stall the job workers.
const MaxQueryPoints = 11000

// RangeQuery asks for one metric's aggregated history. Every output point
// at time t summarizes the half-open window [t-step, t) — the same
// orientation the downsampler's buckets use, so a tier bucket nests
// exactly inside an aligned query window and rate() agrees across tiers.
type RangeQuery struct {
	Metric string
	// Match restricts the series set: every listed label must equal.
	Match map[string]string
	// StartMs/EndMs bound the query, unix milliseconds, inclusive.
	StartMs, EndMs int64
	// StepMs is the output resolution (default: a 100-point spread).
	StepMs int64
	// Agg is one of rate, avg, min, max, sum (default avg).
	Agg string
	// TierStep forces a tier by its bucket width; zero auto-selects the
	// finest tier whose retention still covers StartMs.
	TierStep time.Duration
}

// SeriesResult is one matched series' aggregated points.
type SeriesResult struct {
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	// Tier is the bucket width the answer was computed from, in
	// milliseconds; 0 = raw samples.
	TierMs int64   `json:"tier_ms"`
	Points []Point `json:"points"`
}

// SeriesInfo is one series' discovery row for /v1/series.
type SeriesInfo struct {
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	// MinMs/MaxMs bound the raw samples currently held.
	MinMs int64 `json:"min_ms,omitempty"`
	MaxMs int64 `json:"max_ms,omitempty"`
}

var validAggs = map[string]bool{"rate": true, "avg": true, "min": true, "max": true, "sum": true}

// QueryRange evaluates q against every matching series. Windows with no
// data are omitted, not zero-filled.
func (db *DB) QueryRange(q RangeQuery) ([]SeriesResult, error) {
	if q.Metric == "" {
		return nil, fmt.Errorf("%w: metric is required", ErrBadQuery)
	}
	if q.EndMs <= q.StartMs {
		return nil, fmt.Errorf("%w: end must be after start", ErrBadQuery)
	}
	if q.Agg == "" {
		q.Agg = "avg"
	}
	if !validAggs[q.Agg] {
		return nil, fmt.Errorf("%w: unknown agg %q", ErrBadQuery, q.Agg)
	}
	if q.StepMs <= 0 {
		q.StepMs = (q.EndMs - q.StartMs) / 100
		if q.StepMs < 1000 {
			q.StepMs = 1000
		}
	}
	if n := (q.EndMs - q.StartMs) / q.StepMs; n > MaxQueryPoints {
		return nil, fmt.Errorf("%w: %d points exceed the limit of %d; raise step",
			ErrBadQuery, n, MaxQueryPoints)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	tier, tierIdx, err := db.pickTierLocked(q)
	if err != nil {
		return nil, err
	}
	var out []SeriesResult
	for _, s := range db.seriesSortedLocked() {
		if s.metric != q.Metric || !matchLabels(s.labels, q.Match) {
			continue
		}
		var pts []Point
		if tierIdx == 0 {
			pts = evalRaw(db.rawSamplesLocked(s, q.StartMs-2*q.StepMs, q.EndMs), q)
		} else {
			pts = evalAgg(s.aggs[tierIdx-1], q)
		}
		if len(pts) == 0 {
			continue
		}
		out = append(out, SeriesResult{
			Metric: s.metric, Labels: s.labels,
			TierMs: tier.Step.Milliseconds(), Points: pts,
		})
	}
	return out, nil
}

// pickTierLocked selects the finest tier whose retention window still
// covers the query start (or the explicitly requested tier).
func (db *DB) pickTierLocked(q RangeQuery) (TierSpec, int, error) {
	if q.TierStep > 0 {
		for i, t := range db.opts.Tiers {
			if t.Step == q.TierStep {
				return t, i, nil
			}
		}
		return TierSpec{}, 0, fmt.Errorf("%w: no tier with step %s", ErrBadQuery, q.TierStep)
	}
	now := db.now().UnixMilli()
	for i, t := range db.opts.Tiers {
		if q.StartMs >= now-t.Retention.Milliseconds() {
			return t, i, nil
		}
	}
	last := len(db.opts.Tiers) - 1
	return db.opts.Tiers[last], last, nil
}

// seriesSortedLocked returns every series in stable key order.
func (db *DB) seriesSortedLocked() []*series {
	out := make([]*series, 0, len(db.series))
	for _, s := range db.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// rawSamplesLocked decodes a series' raw samples within [fromMs, toMs].
// Chunks recovered from a torn tail decode as far as they go; a decode
// error ends that chunk early rather than failing the query.
func (db *DB) rawSamplesLocked(s *series, fromMs, toMs int64) []Point {
	var out []Point
	emit := func(data []byte, n int, startT, endT int64) {
		if endT < fromMs || startT > toMs {
			return
		}
		it := iterChunk(data, n)
		for {
			t, v, ok := it.next()
			if !ok {
				break
			}
			if t < fromMs || t > toMs {
				continue
			}
			out = append(out, Point{T: t, V: v})
		}
	}
	for _, sc := range s.sealed {
		emit(sc.data, sc.n, sc.startT, sc.endT)
	}
	if s.head != nil && s.head.n > 0 {
		emit(s.head.bytes(), s.head.n, s.head.startT, s.head.endT)
	}
	// Sealed chunks are time-ordered, but a restart can interleave a
	// replayed chunk with freshly scraped samples; sort to be safe.
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// evalRaw aggregates raw samples into q's step windows. For rate, the
// reset-aware increase of each consecutive sample pair is attributed to
// the window holding the later sample — the same rule downsampling uses,
// which is what keeps raw and tiered rates in agreement.
func evalRaw(samples []Point, q RangeQuery) []Point {
	if len(samples) == 0 {
		return nil
	}
	type acc struct {
		min, max, sum float64
		count         uint64
		inc           float64
	}
	buckets := make(map[int64]*acc)
	bucketEnd := func(t int64) (int64, bool) {
		if t < q.StartMs-q.StepMs || t >= q.EndMs {
			return 0, false
		}
		// Window [be-step, be) with be on the start+k*step grid.
		k := (t - (q.StartMs - q.StepMs)) / q.StepMs
		return q.StartMs + k*q.StepMs, true
	}
	var prev Point
	hasPrev := false
	for _, p := range samples {
		be, ok := bucketEnd(p.T)
		if ok {
			a := buckets[be]
			if a == nil {
				a = &acc{min: p.V, max: p.V}
				buckets[be] = a
			}
			if p.V < a.min {
				a.min = p.V
			}
			if p.V > a.max {
				a.max = p.V
			}
			a.sum += p.V
			a.count++
			if hasPrev {
				if d := p.V - prev.V; d >= 0 {
					a.inc += d
				} else {
					a.inc += p.V
				}
			}
		}
		prev, hasPrev = p, true
	}
	return collectBuckets(q, func(be int64) (float64, bool) {
		a, ok := buckets[be]
		if !ok || a.count == 0 {
			return 0, false
		}
		switch q.Agg {
		case "rate":
			return a.inc / (float64(q.StepMs) / 1000), true
		case "min":
			return a.min, true
		case "max":
			return a.max, true
		case "sum":
			return a.sum, true
		default:
			return a.sum / float64(a.count), true
		}
	})
}

// evalAgg aggregates a tier's finalized (and currently-open) buckets into
// q's step windows. A tier bucket belongs to the window containing its
// start.
func evalAgg(a *aggState, q RangeQuery) []Point {
	pts := a.done
	var open []AggPoint
	if a.bucketT >= 0 {
		open = []AggPoint{a.cur}
	}
	type acc struct {
		AggPoint
		ok bool
	}
	buckets := make(map[int64]*acc)
	feed := func(p AggPoint) {
		if p.T < q.StartMs-q.StepMs || p.T >= q.EndMs {
			return
		}
		k := (p.T - (q.StartMs - q.StepMs)) / q.StepMs
		be := q.StartMs + k*q.StepMs
		c := buckets[be]
		if c == nil {
			c = &acc{AggPoint: p, ok: true}
			buckets[be] = c
			return
		}
		if p.Min < c.Min {
			c.Min = p.Min
		}
		if p.Max > c.Max {
			c.Max = p.Max
		}
		c.Sum += p.Sum
		c.Count += p.Count
		c.Last = p.Last
		c.Inc += p.Inc
	}
	for _, p := range pts {
		feed(p)
	}
	for _, p := range open {
		feed(p)
	}
	return collectBuckets(q, func(be int64) (float64, bool) {
		c, ok := buckets[be]
		if !ok || c.Count == 0 {
			return 0, false
		}
		switch q.Agg {
		case "rate":
			return c.Inc / (float64(q.StepMs) / 1000), true
		case "min":
			return c.Min, true
		case "max":
			return c.Max, true
		case "sum":
			return c.Sum, true
		default:
			return c.Sum / float64(c.Count), true
		}
	})
}

// collectBuckets walks the output grid start..end and emits the windows
// that have data.
func collectBuckets(q RangeQuery, value func(be int64) (float64, bool)) []Point {
	var out []Point
	for be := q.StartMs; be <= q.EndMs; be += q.StepMs {
		if v, ok := value(be); ok {
			out = append(out, Point{T: be, V: v})
		}
	}
	return out
}

// Series lists held series, optionally restricted to one metric, sorted
// by key.
func (db *DB) Series(metric string) []SeriesInfo {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []SeriesInfo
	for _, s := range db.seriesSortedLocked() {
		if metric != "" && s.metric != metric {
			continue
		}
		info := SeriesInfo{Metric: s.metric, Labels: s.labels}
		if len(s.sealed) > 0 {
			info.MinMs = s.sealed[0].startT
			info.MaxMs = s.sealed[len(s.sealed)-1].endT
		}
		if s.head != nil && s.head.n > 0 {
			if info.MinMs == 0 {
				info.MinMs = s.head.startT
			}
			info.MaxMs = s.head.endT
		}
		out = append(out, info)
	}
	return out
}

// RawSamples returns a series' raw samples in [fromMs, toMs] — the
// backfill feed for burn-rate windows after a restart.
func (db *DB) RawSamples(metric string, match map[string]string, fromMs, toMs int64) []Point {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := canonicalKey(metric, match)
	s, ok := db.series[key]
	if !ok {
		return nil
	}
	return db.rawSamplesLocked(s, fromMs, toMs)
}
