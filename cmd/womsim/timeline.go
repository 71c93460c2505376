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
	sinks := make([]*probe.TimelineSink, len(core.Arches()))
	counters := make([]*probe.CounterSink, len(core.Arches()))
	runs, err := runArches(params, "timeline", sim.Observer{
		Attach: func(arch string, _ memctrl.Config) ([]probe.Sink, func(*stats.Run)) {
			i := archIndex(arch)
			sinks[i] = probe.NewTimelineSink(i+1, arch, limit)
			counters[i] = probe.NewCounterSink()
			return []probe.Sink{counters[i], sinks[i]}, nil
		},
	})
	if err != nil {
		return err
	}
	for i, tl := range sinks {
		run := runs[i]
		fmt.Fprintf(os.Stderr, "womsim: %-16s %d events (%d dropped), %d requests, %.2f ms simulated\n",
			run.Arch, tl.Len(), tl.Dropped(), requests(run), float64(run.SimulatedNs)/1e6)
		counts := counters[i].Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(os.Stderr, "womsim:   %-20s %d\n", k, counts[k])
		}
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
