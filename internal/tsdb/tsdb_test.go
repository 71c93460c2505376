package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"womcpcm/internal/metrics"
)

// testClock is a hand-advanced clock shared by a DB under test.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	// Aligned to the 10m grid so tier buckets land on round boundaries.
	base := time.UnixMilli((1_700_000_000_000 / 600_000) * 600_000)
	return &testClock{t: base}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func openTestDB(t *testing.T, dir string, clk *testClock) *DB {
	t.Helper()
	db, err := Open(Options{
		Dir:            dir,
		ScrapeInterval: 5 * time.Second,
		FlushInterval:  30 * time.Second,
		Tiers: []TierSpec{
			{Step: 0, Retention: 2 * time.Hour},
			{Step: time.Minute, Retention: 24 * time.Hour},
			{Step: 10 * time.Minute, Retention: 7 * 24 * time.Hour},
		},
		Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestScrapeIngestAndQueryAvg(t *testing.T) {
	clk := newTestClock()
	db := openTestDB(t, "", clk)
	defer db.Close()

	val := 0.0
	gather := func() []metrics.Family {
		return []metrics.Family{{Name: "womd_test_gauge", Help: "test", Type: "gauge", Samples: []metrics.Sample{
			{Labels: metrics.Labels("zone", "a"), Value: val},
			{Labels: metrics.Labels("zone", "b"), Value: val * 2},
		}}}
	}
	start := clk.Now().UnixMilli()
	for i := 0; i < 60; i++ {
		clk.Advance(5 * time.Second)
		val = float64(i)
		db.ScrapeOnce(gather)
	}
	end := clk.Now().UnixMilli()

	res, err := db.QueryRange(RangeQuery{
		Metric: "womd_test_gauge", StartMs: start + 60_000, EndMs: end + 1,
		StepMs: 60_000, Agg: "avg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d series, want 2", len(res))
	}
	if res[0].Labels["zone"] != "a" || res[1].Labels["zone"] != "b" {
		t.Fatalf("series order: %v, %v", res[0].Labels, res[1].Labels)
	}
	if len(res[0].Points) < 4 {
		t.Fatalf("too few points: %d", len(res[0].Points))
	}
	// zone=b is always exactly twice zone=a; averages must preserve that.
	for i, p := range res[0].Points {
		if b := res[1].Points[i].V; math.Abs(b-2*p.V) > 1e-9 {
			t.Fatalf("point %d: zone b=%v, want %v", i, b, 2*p.V)
		}
	}

	// Matcher restricts to one series.
	res, err = db.QueryRange(RangeQuery{
		Metric: "womd_test_gauge", Match: map[string]string{"zone": "b"},
		StartMs: start + 60_000, EndMs: end + 1, StepMs: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Labels["zone"] != "b" {
		t.Fatalf("matcher returned %+v", res)
	}

	infos := db.Series("womd_test_gauge")
	if len(infos) != 2 {
		t.Fatalf("Series: %+v", infos)
	}
	if all := db.Series(""); len(all) < 2 {
		t.Fatalf("Series(\"\"): %+v", all)
	}
}

func TestQueryValidation(t *testing.T) {
	db := openTestDB(t, "", newTestClock())
	defer db.Close()
	for _, q := range []RangeQuery{
		{Metric: "", StartMs: 0, EndMs: 1},
		{Metric: "m", StartMs: 5, EndMs: 5},
		{Metric: "m", StartMs: 0, EndMs: 1, Agg: "median"},
		{Metric: "m", StartMs: 0, EndMs: 1, TierStep: 3 * time.Second},
		{Metric: "m", StartMs: 0, EndMs: MaxQueryPoints + 1, StepMs: 1},
		{Metric: "m", StartMs: 0, EndMs: 1_700_000_000_000, StepMs: 1},
	} {
		if _, err := db.QueryRange(q); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("query %+v: err=%v, want ErrBadQuery", q, err)
		}
	}
	if _, err := db.QueryRange(RangeQuery{Metric: "m", StartMs: 0, EndMs: MaxQueryPoints, StepMs: 1}); err != nil {
		t.Fatalf("grid of exactly MaxQueryPoints refused: %v", err)
	}
}

// TestRateDownsampleAgreement pins the tentpole correctness criterion:
// rate() evaluated from the 1m tier agrees with rate() from raw samples
// on a synthetic counter with a mid-stream reset.
func TestRateDownsampleAgreement(t *testing.T) {
	clk := newTestClock()
	db := openTestDB(t, "", clk)
	defer db.Close()

	v := 0.0
	gather := func() []metrics.Family {
		return []metrics.Family{metrics.Counter("womd_test_counter_total", "", v)}
	}
	start := clk.Now().UnixMilli()
	for i := 0; i < 360; i++ { // 30 minutes at 5s
		clk.Advance(5 * time.Second)
		if i == 180 {
			v = 3 // counter reset (process restart)
		} else {
			v += 7 + float64(i%13)
		}
		db.ScrapeOnce(gather)
	}
	end := clk.Now().UnixMilli()

	q := RangeQuery{
		Metric:  "womd_test_counter_total",
		StartMs: start + 120_000, EndMs: end, StepMs: 120_000, Agg: "rate",
	}
	raw, err := db.QueryRange(q)
	if err != nil {
		t.Fatal(err)
	}
	qt := q
	qt.TierStep = time.Minute
	tiered, err := db.QueryRange(qt)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 || len(tiered) != 1 {
		t.Fatalf("series: raw=%d tiered=%d", len(raw), len(tiered))
	}
	if raw[0].TierMs != 0 || tiered[0].TierMs != 60_000 {
		t.Fatalf("tiers: raw=%d tiered=%d", raw[0].TierMs, tiered[0].TierMs)
	}
	rp, tp := raw[0].Points, tiered[0].Points
	if len(rp) < 10 {
		t.Fatalf("too few raw rate points: %d", len(rp))
	}
	tpByT := make(map[int64]float64, len(tp))
	for _, p := range tp {
		tpByT[p.T] = p.V
	}
	compared := 0
	for _, p := range rp {
		tv, ok := tpByT[p.T]
		if !ok {
			continue
		}
		compared++
		if p.V == 0 && tv == 0 {
			continue
		}
		if rel := math.Abs(p.V-tv) / math.Max(math.Abs(p.V), math.Abs(tv)); rel > 0.01 {
			t.Fatalf("rate at %d: raw=%v tier=%v (rel %.4f > 1%%)", p.T, p.V, tv, rel)
		}
	}
	if compared < 10 {
		t.Fatalf("only %d comparable windows", compared)
	}
}

func TestRestartContinuity(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	v := 0.0
	gather := func() []metrics.Family {
		return []metrics.Family{metrics.Counter("womd_test_counter_total", "", v)}
	}

	db := openTestDB(t, dir, clk)
	start := clk.Now().UnixMilli()
	for i := 0; i < 120; i++ { // 10 minutes
		clk.Advance(5 * time.Second)
		v += 5
		db.ScrapeOnce(gather)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": new process, same dir. Counters restart from zero too.
	clk.Advance(10 * time.Second)
	v = 0
	db2 := openTestDB(t, dir, clk)
	defer db2.Close()
	for i := 0; i < 120; i++ {
		clk.Advance(5 * time.Second)
		v += 5
		db2.ScrapeOnce(gather)
	}
	end := clk.Now().UnixMilli()

	res, err := db2.QueryRange(RangeQuery{
		Metric:  "womd_test_counter_total",
		StartMs: start + 60_000, EndMs: end, StepMs: 60_000, Agg: "max",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("series: %d", len(res))
	}
	pts := res[0].Points
	// ~20 one-minute windows; the restart gap may drop at most one.
	if len(pts) < 18 {
		t.Fatalf("restart left only %d windows of ~20", len(pts))
	}
	// Windows from both sides of the restart must be present.
	var before, after bool
	mid := start + 10*60_000
	for _, p := range pts {
		if p.T < mid {
			before = true
		}
		if p.T > mid+60_000 {
			after = true
		}
	}
	if !before || !after {
		t.Fatalf("windows span: before=%v after=%v", before, after)
	}
	for i := 1; i < len(pts); i++ {
		if gap := pts[i].T - pts[i-1].T; gap > 2*60_000 {
			t.Fatalf("gap of %dms between windows %d and %d", gap, i-1, i)
		}
	}
}

// TestTornTailEveryOffset truncates the final segment at every byte
// offset; every truncation must open cleanly (the torn tail is cut off),
// still return every record whose frame ends at or before the cut and none
// after it, and leave an appendable store — the resultstore crash
// contract.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	db := openTestDB(t, dir, clk)
	v := 0.0
	gather := func() []metrics.Family { return []metrics.Family{metrics.Counter("womd_torn_total", "", v)} }
	for i := 0; i < 24; i++ {
		clk.Advance(5 * time.Second)
		v++
		db.ScrapeOnce(gather)
	}
	db.AppendAlertTransition(clk.Now(), "firing", "r\x00s", json.RawMessage(`{"id":"al-000001"}`))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(segHeader) {
		t.Fatalf("segment only %d bytes", len(full))
	}

	// Every frame in the log, with the offset its frame ends at within its
	// segment.
	type framed struct {
		seg string
		end int
		rec record
	}
	var frames []framed
	kinds := map[string]int{}
	for _, s := range segs {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		for off := len(segHeader); off < len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			var rec record
			if err := json.Unmarshal(data[off+8:off+8+n], &rec); err != nil {
				t.Fatal(err)
			}
			off += 8 + n
			frames = append(frames, framed{seg: s, end: off, rec: rec})
			kinds[rec.Kind]++
		}
	}
	if kinds["chunk"] < 2 || kinds["agg"] < 2 || kinds["alert"] != 1 {
		t.Fatalf("log holds %v records, want chunks, aggregates and one alert", kinds)
	}
	// returned reports whether db serves rec's data. Aggregates are matched
	// on their minimum: the sample appended after recovery (99, above every
	// scraped value) lands in the same buckets as the last scraped ones.
	returned := func(db *DB, rec record) bool {
		switch rec.Kind {
		case "chunk":
			n := len(db.RawSamples(rec.Metric, rec.Labels, rec.Start, rec.End))
			if n != 0 && n != rec.Samples {
				t.Fatalf("chunk [%d,%d] partly returned: %d of %d samples", rec.Start, rec.End, n, rec.Samples)
			}
			return n != 0
		case "agg":
			found := 0
			for _, p := range rec.Points {
				res, err := db.QueryRange(RangeQuery{
					Metric: rec.Metric, Match: rec.Labels, Agg: "min",
					StartMs: p.T + rec.StepMs, EndMs: p.T + rec.StepMs + 1, StepMs: rec.StepMs,
					TierStep: time.Duration(rec.StepMs) * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res) == 1 && len(res[0].Points) == 1 && res[0].Points[0].V == p.Min {
					found++
				}
			}
			if found != 0 && found != len(rec.Points) {
				t.Fatalf("aggregate record partly returned: %d of %d points", found, len(rec.Points))
			}
			return found != 0
		default:
			for _, tr := range db.AlertHistory(time.Time{}, time.Time{}, 0) {
				if tr.Key == rec.Transition.Key && tr.At.Equal(rec.Transition.At) && tr.To == rec.Transition.To {
					return true
				}
			}
			return false
		}
	}

	for off := 0; off <= len(full); off++ {
		tdir := t.TempDir()
		for _, s := range segs {
			data, err := os.ReadFile(s)
			if err != nil {
				t.Fatal(err)
			}
			if s == seg {
				data = data[:off]
			}
			if err := os.WriteFile(filepath.Join(tdir, filepath.Base(s)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		check := func(db *DB, stage string) {
			for _, f := range frames {
				kept := f.seg != seg || f.end <= off
				if got := returned(db, f.rec); got != kept {
					t.Fatalf("offset %d, %s: %s record ending at %d returned=%v, want %v", off, stage, f.rec.Kind, f.end, got, kept)
				}
			}
		}
		db2 := openTestDB(t, tdir, clk)
		check(db2, "open")
		db2.Append("womd_torn_total", nil, clk.Now().UnixMilli()+int64(off)+1, 99)
		if err := db2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
		// The recovered store must reopen cleanly after the new append.
		db3 := openTestDB(t, tdir, clk)
		check(db3, "reopen")
		if err := db3.Close(); err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
	}
}

func TestInteriorCorruptionRefuses(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	db, err := Open(Options{
		Dir: dir, MaxSegmentBytes: 256, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		db.AppendAlertTransition(clk.Now().Add(time.Duration(i)*time.Second),
			"pending", fmt.Sprintf("k%d", i), json.RawMessage(`{}`))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*.log"))
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Now: clk.Now}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", err)
	}
}

func TestAlertJournalReplay(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	db := openTestDB(t, dir, clk)
	at := clk.Now()
	db.AppendAlertTransition(at, "pending", "keyA", json.RawMessage(`{"id":"al-000001","state":"pending"}`))
	db.AppendAlertTransition(at.Add(time.Second), "firing", "keyA", json.RawMessage(`{"id":"al-000001","state":"firing"}`))
	db.AppendAlertTransition(at.Add(2*time.Second), "pending", "keyB", json.RawMessage(`{"id":"al-000002","state":"pending"}`))
	db.AppendAlertTransition(at.Add(3*time.Second), "firing", "keyB", json.RawMessage(`{"id":"al-000002","state":"firing"}`))
	db.AppendAlertTransition(at.Add(4*time.Second), "resolved", "keyB", json.RawMessage(`{"id":"al-000002","state":"resolved"}`))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir, clk)
	defer db2.Close()
	hist := db2.AlertHistory(time.Time{}, time.Time{}, 0)
	if len(hist) != 5 {
		t.Fatalf("history: %d transitions, want 5", len(hist))
	}
	if hist[0].To != "resolved" || hist[0].Key != "keyB" {
		t.Fatalf("newest first: %+v", hist[0])
	}
	active := db2.ActiveAlerts()
	if len(active) != 1 || active[0].Key != "keyA" || active[0].To != "firing" {
		t.Fatalf("active: %+v", active)
	}
	// Bounded + filtered lookups.
	if h := db2.AlertHistory(time.Time{}, time.Time{}, 2); len(h) != 2 {
		t.Fatalf("limit: %d", len(h))
	}
	if h := db2.AlertHistory(at.Add(4*time.Second), time.Time{}, 0); len(h) != 1 {
		t.Fatalf("from filter: %d", len(h))
	}
}

func TestRetentionPruneAndSegmentGC(t *testing.T) {
	dir := t.TempDir()
	clk := newTestClock()
	db, err := Open(Options{
		Dir:                dir,
		ScrapeInterval:     5 * time.Second,
		FlushInterval:      30 * time.Second,
		MaxSegmentBytes:    2048,
		MaxSamplesPerChunk: 32,
		Tiers: []TierSpec{
			{Step: 0, Retention: 5 * time.Minute},
			{Step: time.Minute, Retention: 10 * time.Minute},
		},
		Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := 0.0
	gather := func() []metrics.Family { return []metrics.Family{metrics.Counter("womd_prune_total", "", v)} }
	for i := 0; i < 600; i++ { // 50 minutes
		clk.Advance(5 * time.Second)
		v++
		db.ScrapeOnce(gather)
	}
	now := clk.Now().UnixMilli()

	db.mu.Lock()
	s := db.series[canonicalKey("womd_prune_total", nil)]
	rawCut := now - (5*time.Minute + time.Minute).Milliseconds()
	for _, sc := range s.sealed {
		if sc.endT < rawCut {
			db.mu.Unlock()
			t.Fatalf("sealed chunk ending %d survived raw retention (cut %d)", sc.endT, rawCut)
		}
	}
	aggCut := now - (10*time.Minute + 2*time.Minute).Milliseconds()
	for _, p := range s.aggs[0].done {
		if p.T < aggCut {
			db.mu.Unlock()
			t.Fatalf("agg bucket %d survived tier retention (cut %d)", p.T, aggCut)
		}
	}
	nseg := len(db.segMaxT)
	db.mu.Unlock()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*.log"))
	if len(segs) != nseg {
		t.Fatalf("on-disk segments %d != tracked %d", len(segs), nseg)
	}
	// 50 minutes of history at a 10-minute max retention with 2 KiB
	// segments: GC must have removed early segments.
	if len(segs) == 0 || strings.Contains(segs[0], fmt.Sprintf("%s%08d.log", segPrefix, 1)) {
		t.Fatalf("segment GC never ran: %v", segs)
	}
}

// TestCanonicalKey pins series identity: labels sorted by name. (The
// exposition parser cases that lived here moved to internal/metrics.)
func TestCanonicalKey(t *testing.T) {
	if canonicalKey("m", map[string]string{"b": "2", "a": "1"}) != `m{a="1",b="2"}` {
		t.Fatal("canonicalKey not sorted")
	}
}

func TestScrapeLoopStartStop(t *testing.T) {
	db, err := Open(Options{ScrapeInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	n := 0
	db.Start(func() []metrics.Family {
		mu.Lock()
		n++
		v := float64(n)
		mu.Unlock()
		return []metrics.Family{metrics.Counter("womd_loop_total", "", v)}
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := n
		mu.Unlock()
		if got >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrape loop never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Series("womd_loop_total") == nil {
		t.Fatal("loop scraped nothing")
	}
}
