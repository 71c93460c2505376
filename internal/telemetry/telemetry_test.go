package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"womcpcm/internal/energy"
	"womcpcm/internal/probe"
)

// finish drains a collector with a watermark far in the future so every
// touched window is final, then returns the series.
func finish(c *Collector) *Series {
	return c.Finish("test", 0)
}

func TestBoundaryEventLandsInItsWindow(t *testing.T) {
	// The satellite contract: an event stamped exactly k·W belongs to window
	// k = [k·W, (k+1)·W), not to window k-1.
	const w = 1000
	c := New(Options{WindowNs: w})
	for k := Clock(0); k < 4; k++ {
		c.Record(probe.Event{Time: k * w, Kind: probe.WriteFirst})
	}
	s := finish(c)
	if len(s.Windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(s.Windows))
	}
	for k, win := range s.Windows {
		if win.Index != int64(k) {
			t.Fatalf("window %d has index %d", k, win.Index)
		}
		if win.StartNs != int64(k)*w || win.EndNs != int64(k+1)*w {
			t.Errorf("window %d spans [%d,%d), want [%d,%d)", k, win.StartNs, win.EndNs, int64(k)*w, int64(k+1)*w)
		}
		if win.Writes.First != 1 {
			t.Errorf("window %d got %d first-writes, want exactly 1 (boundary event must not spill into window %d)",
				k, win.Writes.First, k-1)
		}
	}
	if s.LateEvents != 0 {
		t.Errorf("late events = %d, want 0", s.LateEvents)
	}
}

func TestSeriesIsDense(t *testing.T) {
	// Quiet windows between active ones still appear, zero-valued.
	const w = 100
	c := New(Options{WindowNs: w})
	c.Record(probe.Event{Time: 50, Kind: probe.WriteAlpha})
	c.Record(probe.Event{Time: 550, Kind: probe.WriteAlpha})
	s := finish(c)
	if len(s.Windows) != 6 {
		t.Fatalf("got %d windows, want 6 (dense 0..5)", len(s.Windows))
	}
	for i, win := range s.Windows {
		want := uint64(0)
		if i == 0 || i == 5 {
			want = 1
		}
		if win.Writes.Alpha != want {
			t.Errorf("window %d alpha = %d, want %d", i, win.Writes.Alpha, want)
		}
	}
}

func TestWriteClassMixAndCacheAndRefreshCounts(t *testing.T) {
	c := New(Options{WindowNs: 1000})
	events := []probe.Kind{
		probe.WriteFirst, probe.WriteWOMRewrite, probe.WriteWOMRewrite,
		probe.WriteAlpha, probe.WriteFlipNWrite,
		probe.RefreshScheduled, probe.RefreshStarted, probe.RefreshResumed,
		probe.CacheHit, probe.CacheHit, probe.CacheFill, probe.CacheEvict,
		probe.CacheWriteback,
	}
	for _, k := range events {
		c.Record(probe.Event{Time: 10, Kind: k})
	}
	s := finish(c)
	w := s.Windows[0]
	if w.Writes != (WriteMix{First: 1, Rewrite: 2, Alpha: 1, FlipNWrite: 1}) {
		t.Errorf("writes = %+v", w.Writes)
	}
	if w.Writes.Total() != 5 {
		t.Errorf("total = %d, want 5", w.Writes.Total())
	}
	if w.Refresh != (RefreshActivity{Scheduled: 1, Started: 1, Resumed: 1}) {
		t.Errorf("refresh = %+v", w.Refresh)
	}
	if w.Cache != (CacheActivity{Hits: 2, Fills: 1, Evicts: 1, Writebacks: 1}) {
		t.Errorf("cache = %+v", w.Cache)
	}
	if got, want := w.Cache.HitRate(), 0.5; got != want {
		t.Errorf("hit rate = %v, want %v", got, want)
	}
}

func TestSpanApportionsAcrossWindows(t *testing.T) {
	// A 120 ns busy span starting at 90 overlaps windows 0 (10 ns),
	// 1 (100 ns), and 2 (10 ns) under a 100 ns window.
	const w = 100
	c := New(Options{WindowNs: w, Banks: 2})
	c.Record(probe.Event{Time: 90, Dur: 120, Kind: probe.BankBusy, Rank: 0, Bank: 0})
	s := finish(c)
	if len(s.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(s.Windows))
	}
	wantBusy := []int64{10, 100, 10}
	for i, want := range wantBusy {
		if got := s.Windows[i].BusyNs; got != want {
			t.Errorf("window %d busy = %d, want %d", i, got, want)
		}
	}
	// Utilization normalizes by width × banks; max-bank by width only.
	if got, want := s.Windows[1].Utilization, 100.0/(100*2); got != want {
		t.Errorf("window 1 utilization = %v, want %v", got, want)
	}
	if got, want := s.Windows[1].MaxBankUtilization, 1.0; got != want {
		t.Errorf("window 1 max-bank utilization = %v, want %v", got, want)
	}
}

func TestRefreshSpansCountAsOccupancy(t *testing.T) {
	// RefreshCompleted spans its interval: occupancy plus one completed count
	// in the window of its start.
	c := New(Options{WindowNs: 1000, Banks: 1})
	c.Record(probe.Event{Time: 100, Dur: 400, Kind: probe.RefreshCompleted, Rank: 0, Bank: 0})
	s := finish(c)
	w := s.Windows[0]
	if w.Refresh.Completed != 1 {
		t.Errorf("completed = %d, want 1", w.Refresh.Completed)
	}
	if w.BusyNs != 400 {
		t.Errorf("busy = %d, want 400", w.BusyNs)
	}
}

// TestRequestDoneSummaries checks demand latencies fed as probe.RequestDone
// events: each lands in the window of its completion time (Time+Dur), not
// of its arrival.
func TestRequestDoneSummaries(t *testing.T) {
	c := New(Options{WindowNs: 10_000})
	done := func(completion, lat Clock, read bool) {
		c.Record(probe.Event{Time: completion - lat, Dur: lat, Kind: probe.RequestDone, Read: read})
	}
	for i := 0; i < 100; i++ {
		done(5000, 64, true)
	}
	done(5000, 4096, true)
	done(5000, 128, false)
	// Arrives in window 0, completes in window 1.
	done(11_000, 2000, true)
	s := finish(c)
	w := s.Windows[0]
	if w.Read.Count != 101 || w.Write.Count != 1 {
		t.Fatalf("read count = %d, write count = %d", w.Read.Count, w.Write.Count)
	}
	if w.Read.MaxNs != 4096 {
		t.Errorf("read max = %d, want 4096", w.Read.MaxNs)
	}
	// p50 of 100×64ns + 1×4096ns sits in the 64 ns bucket (upper bound 128).
	if w.Read.P50Ns > 128 {
		t.Errorf("read p50 = %d, want ≤ 128", w.Read.P50Ns)
	}
	if w.Write.MeanNs != 128 {
		t.Errorf("write mean = %v, want 128", w.Write.MeanNs)
	}
	// An empty distribution summarizes to the zero value.
	if (s.Windows[0].Read == LatencySummary{}) {
		t.Errorf("read summary unexpectedly empty")
	}
	if len(s.Windows) != 2 || s.Windows[1].Read.Count != 1 || s.Windows[1].Read.MaxNs != 2000 {
		t.Errorf("window 1 read = %+v, want the one 2000 ns read completing at 11000", s.Windows[1].Read)
	}
}

func TestLateEventsCounted(t *testing.T) {
	const w = 100
	c := New(Options{WindowNs: w})
	// Watermark far ahead: windows 0.. finalize (lag = 2 windows).
	c.Record(probe.Event{Time: 10_000, Kind: probe.WriteFirst})
	if c.nextFinal == 0 {
		t.Fatal("expected some windows finalized by advancing watermark")
	}
	before := len(c.done)
	// This event's window already finalized: tallied late, not re-opened.
	c.Record(probe.Event{Time: 0, Kind: probe.WriteAlpha})
	s := finish(c)
	if s.LateEvents != 1 {
		t.Fatalf("late events = %d, want 1", s.LateEvents)
	}
	if s.Windows[0].Writes.Alpha != 0 {
		t.Errorf("late event mutated a finalized window")
	}
	if len(c.done) < before {
		t.Errorf("finalized windows went backwards")
	}
}

func TestOnWindowStreamsInOrder(t *testing.T) {
	const w = 100
	var streamed []int64
	c := New(Options{WindowNs: w, OnWindow: func(win Window) {
		streamed = append(streamed, win.Index)
	}})
	for i := Clock(0); i < 10; i++ {
		c.Record(probe.Event{Time: i * w, Kind: probe.WriteFirst})
	}
	// With a watermark at 900 and 2 windows of lag, windows 0..6 are final.
	if len(streamed) == 0 {
		t.Fatal("no windows streamed before Finish")
	}
	mid := len(streamed)
	s := finish(c)
	if len(streamed) != 10 {
		t.Fatalf("streamed %d windows, want 10 (dense 0..9)", len(streamed))
	}
	if len(s.Windows) != 0 {
		t.Errorf("streaming collector retained %d windows, want none", len(s.Windows))
	}
	if mid >= len(streamed) {
		t.Errorf("expected Finish to deliver the tail (streamed %d mid-run, %d total)", mid, len(streamed))
	}
	for i, idx := range streamed {
		if idx != int64(i) {
			t.Fatalf("streamed order %v", streamed)
		}
	}
}

func TestEnergyPricing(t *testing.T) {
	m := energy.Model{RowRead: 10, RowWriteFast: 100, RowWriteFull: 1000, RowBuffer: 1}
	c := New(Options{WindowNs: 1000, Energy: &m})
	c.Record(probe.Event{Time: 0, Kind: probe.WriteFirst})      // fast
	c.Record(probe.Event{Time: 0, Kind: probe.WriteWOMRewrite}) // fast
	c.Record(probe.Event{Time: 0, Kind: probe.WriteAlpha})      // full
	c.Record(probe.Event{Time: 0, Kind: probe.WriteFlipNWrite}) // full
	c.Record(probe.Event{Time: 0, Dur: 10, Kind: probe.RefreshCompleted})
	s := finish(c)
	want := 2*100.0 + 2*1000.0 + (10.0 + 1000.0)
	if got := s.Windows[0].EnergyPJ; got != want {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestTotalsAndDefaults(t *testing.T) {
	c := New(Options{})
	if c.WindowNs() != DefaultWindowNs {
		t.Errorf("default window = %d, want %d", c.WindowNs(), DefaultWindowNs)
	}
	c.Record(probe.Event{Time: 0, Kind: probe.WriteFirst})
	c.Record(probe.Event{Time: DefaultWindowNs + 1, Kind: probe.WriteAlpha})
	s := c.Finish("WOM-code PCM", 12345)
	if s.Arch != "WOM-code PCM" || s.SimulatedNs != 12345 {
		t.Errorf("series labels: %+v", s)
	}
	m := s.Totals()
	if m.First != 1 || m.Alpha != 1 || m.Total() != 2 {
		t.Errorf("totals = %+v", m)
	}
}

func TestEmptyCollectorFinish(t *testing.T) {
	s := New(Options{}).Finish("baseline", 0)
	if len(s.Windows) != 0 || s.LateEvents != 0 {
		t.Errorf("empty collector produced %+v", s)
	}
}

// oracleStream is one seeded random event stream: mostly time-ordered with
// the simulator's bounded reordering (spans reported at completion carrying
// their start), plus the corner cases the windowing must agree on.
type oracleStream struct {
	name       string
	width      Clock
	ranks      int
	banks      int
	maxSpan    Clock // longest busy or refresh span
	lateEvery  int   // every lateEvery-th event jumps far back (0: never)
	negEvery   int   // every negEvery-th event has a negative time (0: never)
	outOfRange bool  // also emit ranks and banks outside the probe contract
	quiet      bool  // gaps of several windows between events
	energy     *energy.Model
	events     int
}

func (s oracleStream) generate(seed int64) []probe.Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]probe.Event, 0, s.events)
	var now Clock
	for i := 0; i < s.events; i++ {
		if s.quiet {
			now += rng.Int63n(4 * s.width)
		} else {
			now += rng.Int63n(s.width/4 + 1)
		}
		ev := probe.Event{
			Time: now,
			Kind: probe.Kind(rng.Intn(probe.NumKinds)),
			Rank: rng.Intn(s.ranks),
			Bank: rng.Intn(s.banks+1) - 1, // -1 is a rank's cache array
			Row:  -1,
		}
		switch ev.Kind {
		case probe.BankBusy, probe.RefreshPaused, probe.RefreshCompleted:
			ev.Dur = rng.Int63n(s.maxSpan + 1)
			ev.Time -= rng.Int63n(ev.Dur + 1) // reported at completion
		case probe.RequestDone:
			ev.Dur = rng.Int63n(4 * s.width)
			ev.Time -= ev.Dur
			ev.Read = rng.Intn(2) == 0
		}
		if s.lateEvery > 0 && i%s.lateEvery == s.lateEvery-1 {
			ev.Time -= 5 * s.width
		}
		if s.negEvery > 0 && i%s.negEvery == s.negEvery-1 {
			ev.Time = -rng.Int63n(2 * s.width)
		}
		if s.outOfRange && i%7 == 0 {
			ev.Rank = rng.Intn(5) - 2
			ev.Bank = rng.Intn(1<<17) - 3
		}
		out = append(out, ev)
	}
	return out
}

// TestCollectorMatchesMapOracle feeds the same seeded streams to the ring
// collector and to the map-based oracle it replaced, and requires identical
// OnWindow sequences from a streaming collector and identical Series from a
// retaining one: spans crossing many windows, negative
// times, cache arrays (Bank -1), late events, windows narrower than a span
// and the paper's 16 ranks × 32 banks.
func TestCollectorMatchesMapOracle(t *testing.T) {
	streams := []oracleStream{
		{name: "paper-geometry", width: DefaultWindowNs, ranks: 16, banks: 32, maxSpan: 4000, events: 20000},
		{name: "long-spans", width: 1000, ranks: 2, banks: 4, maxSpan: 25_000, events: 5000},
		{name: "narrow-windows", width: 10, ranks: 4, banks: 8, maxSpan: 400, lateEvery: 0, events: 5000},
		{name: "late-events", width: 500, ranks: 4, banks: 8, maxSpan: 2000, lateEvery: 13, events: 5000},
		{name: "negative-times", width: 700, ranks: 2, banks: 2, maxSpan: 1500, negEvery: 11, events: 3000},
		{name: "out-of-contract", width: 300, ranks: 3, banks: 4, maxSpan: 900, outOfRange: true, events: 3000},
		{name: "single-window", width: 1 << 40, ranks: 16, banks: 32, maxSpan: 4000, events: 2000},
		// Quiet windows price at zero even when a price is infinite.
		{name: "infinite-prices", width: 100, ranks: 2, banks: 2, maxSpan: 50, quiet: true, events: 2000,
			energy: &energy.Model{RowRead: math.Inf(1), RowWriteFast: 1, RowWriteFull: math.Inf(1)}},
	}
	// %+v renders every float exactly and NaN equal to itself.
	same := func(a, b any) bool {
		return reflect.DeepEqual(a, b) || fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
	}
	for _, s := range streams {
		for seed := int64(1); seed <= 3; seed++ {
			evs := s.generate(seed)
			var gotWins, wantWins []Window
			opts := Options{WindowNs: s.width, Banks: s.ranks * (s.banks + 1), Energy: s.energy}
			// The Series path: no OnWindow, so the collector retains windows.
			c := New(opts)
			// The streamed path: windows go to OnWindow and are not retained.
			opts.OnWindow = func(w Window) { gotWins = append(gotWins, w) }
			cs := New(opts)
			opts.OnWindow = func(w Window) { wantWins = append(wantWins, w) }
			o := newMapCollector(opts)
			for i, ev := range evs {
				c.Record(ev)
				cs.Record(ev)
				o.Record(ev)
				if len(gotWins) != len(wantWins) {
					t.Fatalf("%s seed %d: after event %d (%+v) %d windows streamed, oracle %d",
						s.name, seed, i, ev, len(gotWins), len(wantWins))
				}
			}
			got, streamed, want := c.Finish("a", 42), cs.Finish("a", 42), o.Finish("a", 42)
			if !same(gotWins, wantWins) {
				t.Errorf("%s seed %d: OnWindow sequences differ", s.name, seed)
			}
			if len(streamed.Windows) != 0 {
				t.Errorf("%s seed %d: streaming collector retained %d windows", s.name, seed, len(streamed.Windows))
			}
			if streamed.LateEvents != want.LateEvents {
				t.Errorf("%s seed %d: streamed late events %d, oracle %d", s.name, seed, streamed.LateEvents, want.LateEvents)
			}
			if !same(got, want) {
				for i := range want.Windows {
					if i < len(got.Windows) && !same(got.Windows[i], want.Windows[i]) {
						t.Errorf("%s seed %d: window %d\n got %+v\nwant %+v", s.name, seed, i, got.Windows[i], want.Windows[i])
						break
					}
				}
				t.Fatalf("%s seed %d: series differ (%d vs %d windows, late %d vs %d)",
					s.name, seed, len(got.Windows), len(want.Windows), got.LateEvents, want.LateEvents)
			}
			if s.lateEvery > 0 && got.LateEvents == 0 {
				t.Errorf("%s seed %d: stream produced no late events", s.name, seed)
			}
		}
	}
}

// TestCollectorRecordAllocs pins the warm streaming collector's steady
// state: once its ring and per-bank storage have grown, Record allocates
// nothing, and it retains no windows that could grow.
func TestCollectorRecordAllocs(t *testing.T) {
	const w = 1000
	c := New(Options{WindowNs: w, Banks: 16 * 33, OnWindow: func(Window) {}})
	var now Clock
	step := func() {
		// One window's worth of traffic at the paper's geometry.
		for rank := 0; rank < 16; rank++ {
			for bank := -1; bank < 32; bank++ {
				c.Record(probe.Event{Time: now, Dur: 60, Kind: probe.BankBusy, Rank: rank, Bank: bank})
			}
			c.Record(probe.Event{Time: now, Kind: probe.WriteAlpha, Rank: rank, Bank: 0})
			c.Record(probe.Event{Time: now, Dur: 150, Kind: probe.RequestDone, Read: rank%2 == 0})
		}
		now += w
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("warm Record allocates %v times per window of traffic, want 0", allocs)
	}
}
