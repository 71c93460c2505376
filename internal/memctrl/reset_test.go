package memctrl

import (
	"fmt"
	"reflect"
	"testing"

	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// resetStep is one configuration of a Reset chain and the trace it runs.
type resetStep struct {
	name string
	cfg  Config
	recs []trace.Record
}

// resetChain lists every feature combination at the small test geometry,
// the four evaluated architectures and the hybrid at the paper's geometry,
// and WCPCM at 32, 4, 16 and 8 banks per rank, so consecutive steps shrink
// and grow the bank count, the rank count, the refresh tables and the cache
// arrays.
func resetChain(t *testing.T) []resetStep {
	t.Helper()
	p, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(g pcm.Geometry) []trace.Record {
		recs, err := workload.Generate(p, g, 3, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	paper := pcm.DefaultGeometry()
	paperRecs := gen(paper)
	var steps []resetStep
	for _, arch := range []Config{
		{},
		{WOM: DefaultWOM()},
		{WOM: DefaultWOM(), Refresh: DefaultRefresh()},
		{Cache: DefaultCache()},
		{Cache: &CacheConfig{Technology: DRAMCache}},
	} {
		arch.Geometry, arch.Timing = paper, pcm.DefaultTiming()
		steps = append(steps, resetStep{arch.ArchName(), arch, paperRecs})
	}
	for _, banks := range []int{32, 4, 16, 8} {
		g := paper
		g.BanksPerRank = banks
		cfg := Config{Geometry: g, Timing: pcm.DefaultTiming(), Cache: DefaultCache()}
		steps = append(steps, resetStep{fmt.Sprintf("WCPCM at %d banks/rank", banks), cfg, gen(g)})
	}
	fuzz := fuzzTrace(11, 2000)
	for i, cfg := range fuzzConfigs() {
		steps = append(steps, resetStep{fmt.Sprintf("fuzz cfg %d (%s)", i, cfg.ArchName()), cfg, fuzz})
	}
	return steps
}

// TestResetMatchesNew runs the Reset chain forwards and then backwards on
// one controller, so every step follows both a larger and a smaller
// configuration, and checks each run against a run on a fresh controller
// from New: equal in every field, latency histograms included, with as
// many Requests created as the fresh run made. It then
// checks every earlier run again, so no Reset or Run reached into a run
// already returned.
func TestResetMatchesNew(t *testing.T) {
	steps := resetChain(t)
	fresh := make([]*stats.Run, len(steps))
	created := make([]int, len(steps))
	for i, s := range steps {
		c, err := New(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fresh[i], err = c.Run(trace.NewSliceSource(s.recs)); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		created[i] = requestsCreated(c)
	}
	order := make([]int, 0, 2*len(steps))
	for i := range steps {
		order = append(order, i)
	}
	for i := len(steps) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	c := new(Controller)
	var reused []*stats.Run
	for _, i := range order {
		s := steps[i]
		c.onTick = func(Clock) { t.Fatal("onTick survived a Reset") }
		if err := c.Reset(s.cfg); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		run, err := c.Run(trace.NewSliceSource(s.recs))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if c.inFlight != 0 {
			t.Fatalf("%s: %d requests still in flight", s.name, c.inFlight)
		}
		if !reflect.DeepEqual(run, fresh[i]) {
			t.Fatalf("%s: run on a reset controller differs from a fresh one:\nreset %+v\nfresh %+v", s.name, run, fresh[i])
		}
		if got := requestsCreated(c); got != created[i] {
			t.Fatalf("%s: the Request slab holds %d requests after a Reset, %d on a fresh controller", s.name, got, created[i])
		}
		reused = append(reused, run)
	}
	for k, run := range reused {
		if !reflect.DeepEqual(run, fresh[order[k]]) {
			t.Errorf("%s: run %d changed after later Resets", steps[order[k]].name, k)
		}
	}
}

// TestResetRejectsInvalidConfig: a failing Reset reports the validation
// error and leaves the controller as it was, ready for a valid Reset.
func TestResetRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig(DefaultWOM(), DefaultRefresh(), nil)
	recs := fuzzTrace(5, 500)
	want := runTrace(t, cfg, recs)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Refresh = &RefreshConfig{ThresholdPct: 101, TableSize: 5}
	if err := c.Reset(bad); err == nil {
		t.Fatal("Reset accepted a 101% refresh threshold")
	}
	if c.cfg.Refresh != cfg.Refresh {
		t.Error("a failed Reset replaced the config")
	}
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run after a failed Reset differs from a fresh run")
	}
}

// TestResetAfterFailedRun: a Run that stops at a disordered record leaves
// requests in flight and events scheduled; a Reset discards them, and the
// next run matches a fresh controller's.
func TestResetAfterFailedRun(t *testing.T) {
	cfg := testConfig(DefaultWOM(), DefaultRefresh(), nil)
	recs := fuzzTrace(7, 1500)
	want := runTrace(t, cfg, recs)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]trace.Record(nil), recs[:1000]...)
	bad = append(bad, trace.Record{Op: trace.Write, Time: bad[len(bad)-1].Time - 1})
	if _, err := c.Run(trace.NewSliceSource(bad)); err == nil {
		t.Fatal("Run accepted a trace that goes backwards")
	}
	if c.inFlight == 0 && len(c.events) == 0 {
		t.Fatal("the failed run left nothing in flight; the test needs a busier prefix")
	}
	if err := c.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run after a failed run and a Reset differs from a fresh run")
	}
}

// TestResetAllocsFixed pins what a Reset plus a Run allocates once the
// controller's storage has grown: exactly the returned *stats.Run, for
// every architecture, both at the geometry it last ran and after switching
// to a smaller geometry and back, and over a trace shorter than the one
// that grew the storage. Nothing scales with the geometry or the trace.
func TestResetAllocsFixed(t *testing.T) {
	paper, small := pcm.DefaultGeometry(), testGeometry()
	longPaper, shortPaper := benchRecords(paper, 40000), benchRecords(paper, 10000)
	longSmall, shortSmall := benchRecords(small, 40000), benchRecords(small, 10000)
	for _, arch := range []Config{
		{},
		{WOM: DefaultWOM()},
		{WOM: DefaultWOM(), Refresh: DefaultRefresh()},
		{Cache: DefaultCache()},
		{Cache: &CacheConfig{Technology: DRAMCache}},
	} {
		t.Run(arch.ArchName(), func(t *testing.T) {
			big, little := arch, arch
			big.Geometry, big.Timing = paper, pcm.DefaultTiming()
			little.Geometry, little.Timing = small, pcm.DefaultTiming()
			c := new(Controller)
			src := new(rewindSource)
			run := func(cfg Config, recs []trace.Record) {
				if err := c.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				src.recs = recs
				if _, err := c.Run(src); err != nil {
					t.Fatal(err)
				}
			}
			run(big, longPaper)
			run(little, longSmall)
			if a := testing.AllocsPerRun(5, func() { run(big, shortPaper) }); a != 1 {
				t.Errorf("Reset+Run at an equal geometry: %v allocs, want 1 (the run)", a)
			}
			if a := testing.AllocsPerRun(5, func() {
				run(little, shortSmall)
				run(big, shortPaper)
			}); a != 2 {
				t.Errorf("Reset+Run to a smaller geometry and back: %v allocs, want 2 (the runs)", a)
			}
		})
	}
}

// rewindSource yields recs, consuming them; a test reloads recs to replay
// them without allocating a new source.
type rewindSource struct{ recs []trace.Record }

func (s *rewindSource) Next() (trace.Record, bool) {
	if len(s.recs) == 0 {
		return trace.Record{}, false
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, true
}

func (*rewindSource) Err() error { return nil }
