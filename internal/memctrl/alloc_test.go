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
// The one thing a run may add is storage for the requests the simulated
// system holds at once: Requests are recycled, so a run creates as many as
// its peak in-flight population. At benchRecords' 40 ns spacing the WCPCM
// cache arrays, which serialise every demand write of their rank, cannot
// keep up: the backlog, and with it the Request population, grows with
// trace length. For WCPCM the test therefore pins that every allocation
// beyond those Requests is the same at both lengths.
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
				// Requests it created, which all sit on the free list once
				// the run has drained.
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
				if sa-float64(sr) != la-float64(lr) {
					t.Errorf("allocs beyond Requests grow with trace length: %v-%d at %d records, %v-%d at %d",
						sa, sr, len(short), la, lr, len(long))
				}
				if !tc.saturates && sa != la {
					t.Errorf("allocs per run grow with trace length: %v at %d records, %v at %d",
						sa, len(short), la, len(long))
				}
				if tc.saturates && lr <= sr {
					t.Errorf("expected a growing backlog: %d Requests at %d records, %d at %d",
						sr, len(short), lr, len(long))
				}
			})
		}
	}
}
