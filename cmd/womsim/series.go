package main

import (
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
	b, err := pickBench(params, "series")
	if err != nil {
		return err
	}
	windowNs := window.Nanoseconds()
	if windowNs <= 0 {
		windowNs = telemetry.DefaultWindowNs
	}

	doc := telemetry.Document{
		Schema:   telemetry.SchemaVersion,
		Workload: b.profile.Name,
		Requests: b.requests,
		Seed:     b.seed,
		WindowNs: windowNs,
	}
	if err := b.eachArch(func(a core.Arch, cfg memctrl.Config) ([]probe.Sink, func(*stats.Run)) {
		col := telemetry.New(telemetry.Options{WindowNs: windowNs, Banks: cfg.Servers()})
		return []probe.Sink{col}, func(run *stats.Run) {
			s := col.Finish(a.String(), run.SimulatedNs)
			doc.Series = append(doc.Series, *s)
			fmt.Fprintf(os.Stderr, "womsim: %-16s %d windows of %s, %.2f ms simulated, %d writes\n",
				a.String(), len(s.Windows), window, float64(run.SimulatedNs)/1e6, s.Totals().Total())
		}
	}); err != nil {
		return err
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
