// Command womsim regenerates the paper's evaluation (Li and Mohanram,
// "Write-Once-Memory-Code Phase Change Memory", DATE 2014): Fig. 5(a)/(b)
// normalized write/read latencies of the four architectures, Fig. 6
// WOM-cache hit rates, Fig. 7 WCPCM bank scaling, and the repository's
// ablation experiments. Every experiment comes from the shared registry in
// internal/sim — the same registry cmd/womd serves as a job API.
//
// Usage:
//
//	womsim -fig fig5         # Fig. 5(a)+(b) across all 20 benchmarks
//	womsim -fig fig6 -requests 100000
//	womsim -fig all -bench 464.h264ref,qsort
//	womsim -fig rth          # refresh-threshold ablation
//	womsim -fig sched,hybrid # comparator ablations ([7], [18])
//	womsim -list             # list registry experiments
//	womsim -detail ocean     # per-run service breakdown + energy pricing
//	womsim -trace my.trace   # replay a recorded trace on every architecture
//	womsim -timeline t.json -bench qsort    # Perfetto/chrome://tracing timeline
//	womsim -series s.json -bench qsort      # epoch-windowed telemetry series
//	womsim -series s.json -series-window 50us  # 50 µs simulated windows
//	womsim -cache out/cache -fig fig5   # memoize: rerunning is a disk read
//	womsim -cache out/cache -fig fig5 -force  # re-simulate and overwrite
//	womsim -fig fig5 -cpuprofile cpu.pprof -memprofile heap.pprof  # host profiling
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"womcpcm/internal/core"
	"womcpcm/internal/energy"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
	"womcpcm/internal/stats"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "fig5", "comma-separated registry experiments (see -list), or \"all\"")
		requests = flag.Int("requests", 200000, "trace length per benchmark")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		bench    = flag.String("bench", "", "comma-separated benchmark filter (default all 20)")
		suite    = flag.String("suite", "", "suite filter: SPEC, MiBench, SPLASH-2")
		ranks    = flag.Int("ranks", 0, "override rank count")
		banks    = flag.Int("banks", 0, "override banks per rank")
		detail   = flag.String("detail", "", "print the full run summary for one benchmark on every architecture")
		timeline = flag.String("timeline", "", "write a Chrome trace-event timeline (Perfetto/chrome://tracing) of one benchmark on every architecture to this file")
		timeLim  = flag.Int("timeline-limit", 250000, "with -timeline: cap events kept per architecture (0 = unlimited)")
		series   = flag.String("series", "", "write an epoch-windowed telemetry series (womtool report input) of one benchmark on every architecture to this file")
		seriesW  = flag.Duration("series-window", time.Duration(telemetry.DefaultWindowNs), "with -series: simulated-time window width")
		traceIn  = flag.String("trace", "", "replay a trace file (text or binary) through every architecture")
		workers  = flag.Int("workers", 0, "parallel simulations (default GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of tables")
		list     = flag.Bool("list", false, "list the experiment registry and exit")
		cacheDir = flag.String("cache", "", "result-store directory; rerunning an identical figure reads it instead of simulating")
		force    = flag.Bool("force", false, "with -cache: re-simulate and overwrite stored results")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU pprof profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap pprof profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// The write happens in this deferred hook so every exit path below
		// (figures, replay, timeline, series) is covered.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "womsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "womsim:", err)
			}
		}()
	}

	if *list {
		for _, e := range sim.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
		return
	}

	params := sim.Params{
		Requests:    *requests,
		Seed:        *seed,
		Suite:       *suite,
		Ranks:       *ranks,
		Banks:       *banks,
		Parallelism: *workers,
	}
	if *bench != "" {
		params.Bench = strings.Split(*bench, ",")
	}

	if *traceIn != "" {
		if err := replayTrace(params, *traceIn); err != nil {
			fatal(err)
		}
		return
	}
	if *timeline != "" {
		if err := runTimeline(params, *timeline, *timeLim); err != nil {
			fatal(err)
		}
		return
	}
	if *series != "" {
		if err := runSeries(params, *series, *seriesW); err != nil {
			fatal(err)
		}
		return
	}
	if *detail != "" {
		if err := printDetail(params, *detail); err != nil {
			fatal(err)
		}
		return
	}

	var store *resultstore.Store
	if *cacheDir != "" {
		var err error
		store, err = resultstore.Open(*cacheDir, resultstore.Options{})
		if err != nil {
			fatal(err)
		}
		defer store.Close()
	}

	names := strings.Split(*fig, ",")
	if strings.TrimSpace(*fig) == "all" {
		names = []string{"fig5", "fig6", "fig7", "rth", "org", "pausing", "code", "sched", "hybrid", "channels"}
	}
	for _, name := range names {
		exp, err := sim.LookupExperiment(name)
		if err != nil {
			fatal(err)
		}
		res, err := runCached(store, exp, params, *force)
		if err != nil {
			fatal(err)
		}
		if err := emit(*jsonOut, res); err != nil {
			fatal(err)
		}
	}
}

// runCached consults the result store before simulating: a hit is a disk
// read, a miss (or -force) runs the experiment and persists the result.
func runCached(store *resultstore.Store, exp sim.Experiment, params sim.Params, force bool) (*sim.Result, error) {
	if store == nil || !resultstore.Cacheable(exp, params) {
		return exp.Run(context.Background(), params)
	}
	key, err := resultstore.KeyForParams(exp.Name, params, store.SchemaVersion())
	if err != nil {
		return nil, err
	}
	if !force {
		if entry, ok := store.Get(key); ok {
			fmt.Fprintf(os.Stderr, "womsim: %s served from cache %s (key %.12s…)\n",
				exp.Name, store.Dir(), key)
			return entry.Result, nil
		}
	}
	start := time.Now()
	res, err := exp.Run(context.Background(), params)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	canon, err := resultstore.CanonicalJSON(doc)
	if err != nil {
		return nil, err
	}
	if err := store.Put(resultstore.Entry{
		Key:        key,
		Experiment: exp.Name,
		Params:     canon,
		Result:     res,
		WallNs:     time.Since(start).Nanoseconds(),
	}); err != nil {
		// A broken cache must not cost the freshly computed result.
		fmt.Fprintf(os.Stderr, "womsim: warning: caching %s failed: %v\n", exp.Name, err)
	}
	return res, nil
}

// emit renders a result as its table or as JSON.
func emit(jsonOut bool, res *sim.Result) error {
	if !jsonOut {
		fmt.Print(res.Text)
		fmt.Println()
		return nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": res.Experiment, "result": res.Data})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "womsim:", err)
	os.Exit(1)
}

func printDetail(params sim.Params, bench string) error {
	p, err := workload.ProfileByName(bench)
	if err != nil {
		return err
	}
	cfg, err := params.Config(context.Background())
	if err != nil {
		return err
	}
	var runs []*stats.Run
	for _, a := range core.Arches() {
		opts := core.DefaultOptions()
		opts.Geometry = cfg.Geometry
		sys, err := core.NewSystem(a, opts)
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(p, cfg.Geometry, cfg.Seed)
		if err != nil {
			return err
		}
		run, err := sys.Simulate(trace.NewLimit(gen, cfg.Requests))
		if err != nil {
			return err
		}
		run.Workload = p.Name
		runs = append(runs, run)
		fmt.Print(run.Summary())
		fmt.Println()
	}
	table, err := energy.Compare(energy.Default(), runs)
	if err != nil {
		return err
	}
	fmt.Println("energy (internal/energy default pricing; §3.2 refresh = read + row write):")
	fmt.Print(table)
	return nil
}
