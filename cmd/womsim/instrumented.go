package main

import (
	"context"
	"fmt"
	"os"

	"womcpcm/internal/core"
	"womcpcm/internal/sim"
	"womcpcm/internal/stats"
)

// runArches runs the benchmark -series or -timeline (mode) instruments on
// every architecture with obs attached, and warns when params select
// several benchmarks: sim.Arches takes the first.
func runArches(params sim.Params, mode string, obs sim.Observer) ([]*stats.Run, error) {
	runs, err := sim.Arches(sim.WithObserver(context.Background(), obs), params)
	if err != nil {
		return nil, err
	}
	// One -bench name selects one benchmark; no name, or a suite, selects
	// several.
	if len(params.Bench) != 1 {
		fmt.Fprintf(os.Stderr, "womsim: -%s instruments one benchmark; using %s (narrow with -bench)\n", mode, runs[0].Workload)
	}
	return runs, nil
}

// archIndex is the position in core.Arches() of the architecture named
// name, so sinks attached from parallel simulations land in a fixed order.
func archIndex(name string) int {
	for i, a := range core.Arches() {
		if a.String() == name {
			return i
		}
	}
	panic("womsim: no architecture named " + name)
}

// requests is the number of records run replayed: every demand request,
// read or write, has one latency sample.
func requests(run *stats.Run) int {
	return int(run.ReadLatency.Count + run.WriteLatency.Count)
}
