package telemetry

import (
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
	if len(streamed) != len(s.Windows) {
		t.Fatalf("streamed %d windows, series has %d", len(streamed), len(s.Windows))
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
