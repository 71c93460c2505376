package main

import (
	"context"
	"fmt"
	"os"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/sim"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// instrumentedBench is the one benchmark -series and -timeline simulate on
// every architecture with probe sinks attached.
type instrumentedBench struct {
	mode     string
	profile  workload.Profile
	requests int
	seed     int64
	geometry pcm.Geometry
}

// pickBench resolves params to the benchmark the mode ("series" or
// "timeline") instruments: the first one selected, with a warning when
// params select several.
func pickBench(params sim.Params, mode string) (instrumentedBench, error) {
	cfg, err := params.Config(context.Background())
	if err != nil {
		return instrumentedBench{}, err
	}
	b := instrumentedBench{mode: mode, profile: cfg.Profiles[0], requests: cfg.Requests,
		seed: cfg.Seed, geometry: cfg.Geometry}
	if len(cfg.Profiles) > 1 {
		fmt.Fprintf(os.Stderr, "womsim: -%s instruments one benchmark; using %s (narrow with -bench)\n", mode, b.profile.Name)
	}
	if b.requests <= 0 {
		b.requests = 200000
	}
	if b.seed == 0 {
		b.seed = 1
	}
	return b, nil
}

// eachArch simulates the benchmark on every architecture in core.Arches()
// order. attach returns the probe sinks for one architecture's controller
// config and the function that receives its finished run.
func (b instrumentedBench) eachArch(attach func(a core.Arch, cfg memctrl.Config) ([]probe.Sink, func(*stats.Run))) error {
	for _, a := range core.Arches() {
		opts := core.DefaultOptions()
		opts.Geometry = b.geometry
		sys, err := core.NewSystem(a, opts)
		if err != nil {
			return err
		}
		cfg := sys.Config()
		sinks, done := attach(a, cfg)
		cfg.Probe = probe.New(sinks...)
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(b.profile, b.geometry, b.seed)
		if err != nil {
			return err
		}
		run, err := ctrl.Run(trace.NewLimit(gen, b.requests))
		if err != nil {
			return fmt.Errorf("%s: %s on %s: %w", b.mode, b.profile.Name, a, err)
		}
		done(run)
	}
	return nil
}
