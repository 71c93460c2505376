package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"womcpcm/internal/span"
)

// spanCapacity bounds the traced run's span ring. A traced service run at
// 30 s records about 19,000 spans; a run that fills the ring is refused
// rather than reported on an evicted trace.
const spanCapacity = 1 << 16

// newRecorder is the span recorder of a traced run: womd's own recorder
// type, under the service name "perfbench", keeping every span, with ids
// fixed by the seed. Span names are the per-layer metric names without
// their unit suffix ("memctrl.wom" feeds memctrl.wom.ns_per_event), so
// spans emitted later from inside the programs can reuse them.
func newRecorder(seed int64) *span.Recorder {
	return span.New(span.Config{Service: "perfbench", Capacity: spanCapacity, Seed: uint64(seed) + 1})
}

// scope is a position in a trace: the recorder plus the span new spans
// nest under. The zero scope records nothing: its spans are nil, and
// ending a nil span is a no-op.
type scope struct {
	rec    *span.Recorder
	parent span.Context
}

// start opens a span named name under the scope's parent.
func (s scope) start(name string) *span.Active { return s.rec.StartSpan(s.parent, name) }

// under returns the scope nesting spans under a.
func (s scope) under(a *span.Active) scope { return scope{s.rec, a.Context()} }

// traced reports whether the scope records spans.
func (s scope) traced() bool { return s.rec != nil }

// untracedOp names the span that marks an operation the traced pass runs
// without child spans, for comparison; coverage leaves its time out.
const untracedOp = "untraced.op"

// op opens the span of one workload operation: a span named name whose
// calls nest under it when full is set, else an untracedOp marker whose
// calls go unrecorded. It returns the span and the scope for the calls.
func (s scope) op(name string, full bool) (*span.Active, scope) {
	switch {
	case !s.traced():
		return nil, scope{}
	case !full:
		return s.start(untracedOp), scope{}
	}
	a := s.start(name)
	return a, s.under(a)
}

// spanTree is a snapshot of a run's spans indexed by parent.
type spanTree struct {
	all      []span.Span
	byID     map[string]span.Span
	children map[string][]span.Span
}

// snapshot indexes the recorder's spans. It fails when the ring is full,
// since the oldest spans may then have been evicted.
func snapshot(rec *span.Recorder) (*spanTree, error) {
	all := rec.Snapshot()
	if len(all) >= spanCapacity {
		return nil, fmt.Errorf("traced run filled the %d-span ring", spanCapacity)
	}
	t := &spanTree{all: all, byID: map[string]span.Span{}, children: map[string][]span.Span{}}
	for _, s := range all {
		t.byID[s.SpanID] = s
		if s.Parent != "" {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t, nil
}

// childIntervals lists s's children's intervals clipped to s, leaving out
// children named skip.
func (t *spanTree) childIntervals(s span.Span, skip string) [][2]int64 {
	var iv [][2]int64
	for _, c := range t.children[s.SpanID] {
		if c.Name != skip {
			iv = append(iv, [2]int64{max(c.StartNs, s.StartNs), min(c.End(), s.End())})
		}
	}
	return iv
}

// coverage is the share of root's duration that its child layer spans
// cover, leaving out time covered only by untraced operations.
func (t *spanTree) coverage(root span.Span) float64 {
	covered := unionLen(t.childIntervals(root, untracedOp))
	excluded := unionLen(t.childIntervals(root, "")) - covered
	if dur := root.DurNs - excluded; dur > 0 {
		return float64(covered) / float64(dur)
	}
	return 0
}

// self is s's duration minus the union of its children's intervals.
func (t *spanTree) self(s span.Span) int64 {
	return s.DurNs - unionLen(t.childIntervals(s, ""))
}

// size is the number of spans in the subtree rooted at s, s included.
func (t *spanTree) size(s span.Span) int {
	n := 1
	for _, c := range t.children[s.SpanID] {
		n += t.size(c)
	}
	return n
}

// spansPerOp is the mean subtree size of root's children named op: how
// many spans one fully traced operation records.
func (t *spanTree) spansPerOp(root span.Span, op string) float64 {
	n, total := 0, 0
	for _, c := range t.children[root.SpanID] {
		if c.Name == op {
			n++
			total += t.size(c)
		}
	}
	return float64(total) / float64(max(n, 1))
}

// unionLen is the total length of the union of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	reach := int64(math.MinInt64)
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return covered
}

// reportSelf adds per-name self time totals under root to the report.
func (t *spanTree) reportSelf(e *env, root span.Span) {
	self := map[string]int64{}
	count := map[string]int{}
	for _, s := range t.all {
		self[s.Name] += t.self(s)
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	e.logf("self time by span (of %.3f s traced; %s marks operations run without child spans):",
		float64(root.DurNs)/1e9, untracedOp)
	for _, n := range names {
		label := n
		if n == root.Name {
			label = "(outside every layer span)"
		}
		e.logf("  %-32s %10.3f s  %5.1f%%  spans=%d", label, float64(self[n])/1e9,
			100*float64(self[n])/float64(max(root.DurNs, 1)), count[n])
	}
}

// write stores the spans as Chrome trace-event JSON, the format
// `womtool spans` renders as a waterfall.
func (t *spanTree) write(path string) error {
	b, err := json.Marshal(span.ChromeTraceOf(t.all))
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// spanCostNs is the recorder's own cost in ns of one span, start to end,
// timed directly: the median over five batches of 20,000 child spans on a
// scratch recorder configured like the traced run's.
func spanCostNs(seed int64) float64 {
	const batch = 20_000
	var per []float64
	for range 5 {
		rec := newRecorder(seed)
		root := rec.StartTrace("bench.span_cost")
		parent := root.Context()
		t := time.Now()
		for range batch {
			rec.StartSpan(parent, "bench.span").End()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/batch)
		root.End()
	}
	return median(per)
}
