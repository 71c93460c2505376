package memctrl

import (
	"testing"

	"womcpcm/internal/probe"
	"womcpcm/internal/trace"
)

// kindTimes extracts the (start, dur) pairs of one kind in emission order.
func kindTimes(evs []probe.Event, k probe.Kind) [][2]Clock {
	var out [][2]Clock
	for _, ev := range evs {
		if ev.Kind == k {
			out = append(out, [2]Clock{ev.Time, ev.Dur})
		}
	}
	return out
}

// TestProbeWriteClassificationAndPauseResume drives the §3.2 refresh
// architecture through a write-pausing episode and checks the emitted event
// stream: write classes ride the budget commit, the preempted refresh
// surfaces as a paused span, and the next tick resumes the same row.
func TestProbeWriteClassificationAndPauseResume(t *testing.T) {
	g := testGeometry()
	rowA := addrOf(t, g, 0, 0, 5)
	rowB := addrOf(t, g, 0, 0, 9)
	counters := probe.NewCounterSink()
	timeline := probe.NewTimelineSink(1, "test", 0)
	cfg := testConfig(freshWOM(), DefaultRefresh(), nil)
	cfg.Probe = probe.New(counters, timeline)

	recs := []trace.Record{
		{Op: trace.Write, Addr: rowA, Time: 0},   // first write, gen 1
		{Op: trace.Write, Addr: rowA, Time: 200}, // rewrite, gen 2: at limit, tabled
		// The tick at 4000 starts refreshing row 5 (150+4·5 = 170 ns); the
		// write to row 9 at 4010 preempts it without touching row 5's table
		// entry, so the tick at 8000 resumes row 5.
		{Op: trace.Write, Addr: rowB, Time: 4010},
	}
	run := runTrace(t, cfg, recs)
	if run.RefreshAborts != 1 || run.Refreshes != 1 {
		t.Fatalf("aborts=%d refreshes=%d, want 1 and 1", run.RefreshAborts, run.Refreshes)
	}

	want := map[probe.Kind]uint64{
		probe.WriteFirst:       2, // row 5 at t=0, row 9 at t=4010
		probe.WriteWOMRewrite:  1, // row 5 at t=200
		probe.RefreshScheduled: 2, // ticks at 4000 and 8000
		probe.RefreshStarted:   1, // row 5 at 4000
		probe.RefreshPaused:    1, // preempted at 4010
		probe.RefreshResumed:   1, // row 5 again at 8000
		probe.RefreshCompleted: 1, // commits at 8170
		probe.BankBusy:         3, // one service span per write
		probe.RequestDone:      3, // one completion per write
	}
	for k, n := range want {
		if got := counters.Count(k); got != n {
			t.Errorf("%s events = %d, want %d", k, got, n)
		}
	}

	evs := timeline.Events()
	if paused := kindTimes(evs, probe.RefreshPaused); len(paused) != 1 ||
		paused[0] != [2]Clock{4000, 10} {
		t.Errorf("paused spans = %v, want [[4000 10]]", paused)
	}
	if done := kindTimes(evs, probe.RefreshCompleted); len(done) != 1 ||
		done[0] != [2]Clock{8000, 170} {
		t.Errorf("completed spans = %v, want [[8000 170]]", done)
	}
	for _, ev := range evs {
		if ev.Kind == probe.RefreshResumed && ev.Row != 5 {
			t.Errorf("resumed row = %d, want 5", ev.Row)
		}
	}
}

// TestProbeAlphaAndBaselineWrites checks the two slow-path write classes:
// a WOM row past its budget α-writes, and an uncoded baseline bank emits
// conventional (Flip-N-Write class) events.
func TestProbeAlphaAndBaselineWrites(t *testing.T) {
	g := testGeometry()
	a := addrOf(t, g, 0, 0, 5)
	recs := []trace.Record{
		{Op: trace.Write, Addr: a, Time: 0},
		{Op: trace.Write, Addr: a, Time: 500},
		{Op: trace.Write, Addr: a, Time: 1000}, // gen 2 → α-write
	}

	counters := probe.NewCounterSink()
	cfg := testConfig(freshWOM(), nil, nil)
	cfg.Probe = probe.New(counters)
	runTrace(t, cfg, recs)
	if counters.Count(probe.WriteAlpha) != 1 {
		t.Errorf("α-write events = %d, want 1", counters.Count(probe.WriteAlpha))
	}

	counters = probe.NewCounterSink()
	cfg = testConfig(nil, nil, nil)
	cfg.Probe = probe.New(counters)
	runTrace(t, cfg, recs)
	if counters.Count(probe.WriteFlipNWrite) != 3 {
		t.Errorf("baseline write events = %d, want 3", counters.Count(probe.WriteFlipNWrite))
	}
	if counters.Count(probe.WriteFirst)+counters.Count(probe.WriteWOMRewrite)+
		counters.Count(probe.WriteAlpha) != 0 {
		t.Errorf("baseline run emitted WOM write classes: %v", counters.Counts())
	}
}

// TestProbeCacheActions drives the WCPCM cache through fill, evict (with
// write-back), and hit, checking each surfaces as its own event kind.
func TestProbeCacheActions(t *testing.T) {
	g := testGeometry()
	bank0 := addrOf(t, g, 0, 0, 5)
	bank1 := addrOf(t, g, 0, 1, 5) // same row index, different bank: conflict
	counters := probe.NewCounterSink()
	cfg := testConfig(nil, nil, DefaultCache())
	cfg.Probe = probe.New(counters)

	recs := []trace.Record{
		{Op: trace.Write, Addr: bank0, Time: 0},    // fill: cache row 5 empty
		{Op: trace.Write, Addr: bank1, Time: 500},  // evict bank 0's victim + write-back
		{Op: trace.Write, Addr: bank1, Time: 1000}, // hit: row 5 caches bank 1
		{Op: trace.Read, Addr: bank1, Time: 1500},  // read hit
	}
	run := runTrace(t, cfg, recs)
	if run.VictimWrites != 1 {
		t.Fatalf("victim writes = %d, want 1", run.VictimWrites)
	}
	want := map[probe.Kind]uint64{
		probe.CacheFill:      1,
		probe.CacheEvict:     1,
		probe.CacheWriteback: 1,
		probe.CacheHit:       2, // write hit + read hit
		// The victim write-back lands on the conventional main memory.
		probe.WriteFlipNWrite: 1,
		// Every cache array write programs the fresh WOM array.
		probe.WriteFirst: 1,
	}
	for k, n := range want {
		if got := counters.Count(k); got != n {
			t.Errorf("%s events = %d, want %d", k, got, n)
		}
	}
	// Cache row 5 takes three writes on a k=2 budget: first, rewrite, α.
	if counters.Count(probe.WriteWOMRewrite) != 1 || counters.Count(probe.WriteAlpha) != 1 {
		t.Errorf("cache-array rewrites=%d α=%d, want 1 and 1",
			counters.Count(probe.WriteWOMRewrite), counters.Count(probe.WriteAlpha))
	}
}
