package main

import (
	"fmt"
	"os"
	"sort"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/probe"
	"womcpcm/internal/sim"
	"womcpcm/internal/stats"
)

// runTimeline replays one benchmark workload on all four architectures with
// the simulator probe attached and writes a merged Chrome trace-event
// timeline: one trace process per architecture, one track per bank (plus a
// rank-wide track for the WOM-cache array and refresh scheduling), refresh
// and busy intervals as slices. The file opens directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func runTimeline(params sim.Params, path string, limit int) error {
	b, err := pickBench(params, "timeline")
	if err != nil {
		return err
	}
	var sinks []*probe.TimelineSink
	if err := b.eachArch(func(a core.Arch, _ memctrl.Config) ([]probe.Sink, func(*stats.Run)) {
		tl := probe.NewTimelineSink(len(sinks)+1, a.String(), limit)
		sinks = append(sinks, tl)
		counters := probe.NewCounterSink()
		return []probe.Sink{counters, tl}, func(run *stats.Run) {
			fmt.Fprintf(os.Stderr, "womsim: %-16s %d events (%d dropped), %d requests, %.2f ms simulated\n",
				a.String(), tl.Len(), tl.Dropped(), b.requests, float64(run.SimulatedNs)/1e6)
			counts := counters.Counts()
			kinds := make([]string, 0, len(counts))
			for k := range counts {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				fmt.Fprintf(os.Stderr, "womsim:   %-20s %d\n", k, counts[k])
			}
		}
	}); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = probe.WriteChromeTrace(f, sinks...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("timeline: writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "womsim: timeline written to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", path)
	return nil
}
