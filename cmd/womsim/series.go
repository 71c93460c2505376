package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/probe"
	"womcpcm/internal/sim"
	"womcpcm/internal/stats"
	"womcpcm/internal/telemetry"
)

// runSeries replays one benchmark workload on all four architectures with a
// telemetry collector attached and writes the windowed time series of every
// architecture into a single JSON document — the input of `womtool report`.
func runSeries(params sim.Params, path string, window time.Duration) error {
	windowNs := window.Nanoseconds()
	if windowNs <= 0 {
		windowNs = telemetry.DefaultWindowNs
	}
	series := make([]telemetry.Series, len(core.Arches()))
	runs, err := runArches(params, "series", sim.Observer{
		Attach: func(arch string, cfg memctrl.Config) ([]probe.Sink, func(*stats.Run)) {
			col := telemetry.New(telemetry.Options{WindowNs: windowNs, Banks: cfg.Servers()})
			return []probe.Sink{col}, func(run *stats.Run) {
				series[archIndex(arch)] = *col.Finish(arch, run.SimulatedNs)
			}
		},
	})
	if err != nil {
		return err
	}
	for i, s := range series {
		fmt.Fprintf(os.Stderr, "womsim: %-16s %d windows of %s, %.2f ms simulated, %d writes\n",
			s.Arch, len(s.Windows), window, float64(runs[i].SimulatedNs)/1e6, s.Totals().Total())
	}

	doc := telemetry.Document{
		Schema:   telemetry.SchemaVersion,
		Workload: runs[0].Workload,
		Requests: requests(runs[0]),
		Seed:     cmp.Or(params.Seed, 1), // Params' zero seed runs as seed 1
		WindowNs: windowNs,
		Series:   series,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(&doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("series: writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "womsim: series written to %s (render with: womtool report %s -o report.html)\n", path, path)
	return nil
}
