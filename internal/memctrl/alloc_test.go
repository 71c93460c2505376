package memctrl

import (
	"runtime"
	"testing"

	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/trace"
)

// TestRunAllocsIndependentOfTraceLength pins the event loop's allocation
// contract for every architecture, with instrumentation disabled and with an
// always-on counter probe: a run over 80k records allocates exactly as much
// as a run over 20k, so only construction allocates and each simulated
// event costs zero allocations.
//
// The one thing a run may add is room in the Request slab for the requests
// the simulated system holds at once: slots are recycled, so the slab
// grows to the run's peak in-flight population. At benchRecords' 40 ns
// spacing the WCPCM cache arrays, which serialise every demand write of
// their rank, cannot keep up: the backlog, and with it the population,
// grows with trace length. For WCPCM the test therefore pins that the long
// run's extra allocations are at most the slab's growth steps between the
// short and the long run's populations.
func TestRunAllocsIndependentOfTraceLength(t *testing.T) {
	g := pcm.Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 64, ColsPerRow: 16, BitsPerCol: 8, Devices: 8}
	short, long := benchRecords(g, 20000), benchRecords(g, 80000)
	cases := []struct {
		name      string
		cfg       Config
		saturates bool
	}{
		{"baseline", Config{}, false},
		{"wom", Config{WOM: DefaultWOM()}, false},
		{"refresh", Config{WOM: DefaultWOM(), Refresh: DefaultRefresh()}, false},
		{"wcpcm", Config{Cache: DefaultCache()}, true},
	}
	for _, tc := range cases {
		for _, counter := range []bool{false, true} {
			name := tc.name + "/nil-probe"
			if counter {
				name = tc.name + "/counter-probe"
			}
			t.Run(name, func(t *testing.T) {
				// measure returns a run's allocations and the number of
				// Requests it created, the slab's population.
				measure := func(recs []trace.Record) (float64, int) {
					var c *Controller
					runtime.GC() // settle earlier subtests' garbage first
					allocs := testing.AllocsPerRun(3, func() {
						cfg := tc.cfg
						cfg.Geometry, cfg.Timing = g, pcm.DefaultTiming()
						if counter {
							cfg.Probe = probe.New(probe.NewCounterSink())
						}
						var err error
						if c, err = New(cfg); err != nil {
							t.Fatal(err)
						}
						if _, err := c.Run(trace.NewSliceSource(recs)); err != nil {
							t.Fatal(err)
						}
					})
					return allocs, requestsCreated(c)
				}
				sa, sr := measure(short)
				la, lr := measure(long)
				if !tc.saturates && (sa != la || sr != lr) {
					t.Errorf("allocs per run grow with trace length: %v allocs and %d Requests at %d records, %v and %d at %d",
						sa, sr, len(short), la, lr, len(long))
				}
				if tc.saturates {
					if lr <= sr {
						t.Errorf("expected a growing backlog: %d Requests at %d records, %d at %d",
							sr, len(short), lr, len(long))
					}
					if extra, steps := la-sa, slabGrowths(lr)-slabGrowths(sr); extra < 0 || extra > float64(steps) {
						t.Errorf("%v allocs beyond the short run's %v, more than the slab's %d growth steps from %d to %d Requests",
							extra, sa, steps, sr, lr)
					}
				}
			})
		}
	}
}

// slabGrowths counts the reallocations the Request slab makes while
// growing from New's capacity to hold n Requests beside its sentinel.
func slabGrowths(n int) int {
	slab := make([]Request, 1, initialRequests)
	grows := 0
	for len(slab) < n+1 {
		before := cap(slab)
		slab = append(slab, Request{})
		if cap(slab) != before {
			grows++
		}
	}
	return grows
}

// TestNewAllocsIndependentOfGeometry pins that building a controller
// allocates a fixed number of objects, whatever the number of banks: the
// paper's 16 × 32 geometry costs exactly what a 2 × 4 one does, for every
// architecture. Row state is paged in by the run, not by New.
func TestNewAllocsIndependentOfGeometry(t *testing.T) {
	small := testGeometry()
	for _, arch := range []Config{
		{},
		{WOM: DefaultWOM()},
		{WOM: DefaultWOM(), Refresh: DefaultRefresh()},
		{Cache: DefaultCache()},
		{Cache: &CacheConfig{Technology: DRAMCache}},
	} {
		allocs := func(g pcm.Geometry) float64 {
			cfg := arch
			cfg.Geometry, cfg.Timing = g, pcm.DefaultTiming()
			return testing.AllocsPerRun(5, func() {
				if _, err := New(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(pcm.DefaultGeometry()); a != b {
			t.Errorf("%s: New allocates %v objects at %d banks, %v at %d",
				arch.ArchName(), a, small.Banks(), b, pcm.DefaultGeometry().Banks())
		}
	}
}
