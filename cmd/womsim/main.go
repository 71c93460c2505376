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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"womcpcm/internal/energy"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
	"womcpcm/internal/telemetry"
)

// figAll is the experiment list `-fig all` runs, in output order.
var figAll = []string{"fig5", "fig6", "fig7", "rth", "org", "pausing", "code", "sched", "hybrid", "channels"}

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
		if err := printDetail(os.Stdout, params, *detail); err != nil {
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
		names = figAll
	}
	if err := runFigures(os.Stdout, os.Stderr, store, names, params, *jsonOut, *force); err != nil {
		fatal(err)
	}
}

// runFigures runs the named experiments and writes their results to w in
// the order named. It first serves every experiment it can from store (a
// nil store caches nothing; force re-simulates); the misses then run as one
// sim.Run call, so a simulation two of them share runs once. Each miss it
// stores records that call's wall time as WallNs.
func runFigures(w, stderr io.Writer, store *resultstore.Store, names []string, params sim.Params, jsonOut, force bool) error {
	var canon []byte // the stored entries' canonical params document
	if store != nil {
		doc, err := json.Marshal(params)
		if err != nil {
			return err
		}
		if canon, err = resultstore.CanonicalJSON(doc); err != nil {
			return err
		}
	}
	results := make([]*sim.Result, len(names))
	keys := make([]string, len(names))
	var miss []sim.Experiment
	var missAt []int
	for i, name := range names {
		exp, err := sim.LookupExperiment(name)
		if err != nil {
			return err
		}
		if store != nil && resultstore.Cacheable(exp, params) {
			if keys[i], err = resultstore.KeyForParams(exp.Name, params, store.SchemaVersion()); err != nil {
				return err
			}
			if entry, ok := store.Get(keys[i]); ok && !force {
				fmt.Fprintf(stderr, "womsim: %s served from cache %s (key %.12s…)\n",
					exp.Name, store.Dir(), keys[i])
				results[i] = entry.Result
				continue
			}
		}
		miss = append(miss, exp)
		missAt = append(missAt, i)
	}
	if len(miss) > 0 {
		start := time.Now()
		ran, err := sim.Run(context.Background(), params, miss...)
		if err != nil {
			return err
		}
		wall := time.Since(start).Nanoseconds()
		for j, i := range missAt {
			results[i] = ran[j]
			if keys[i] == "" {
				continue
			}
			if err := store.Put(resultstore.Entry{Key: keys[i], Experiment: ran[j].Experiment,
				Params: canon, Result: ran[j], WallNs: wall}); err != nil {
				// A broken cache must not cost the freshly computed result.
				fmt.Fprintf(stderr, "womsim: warning: caching %s failed: %v\n", ran[j].Experiment, err)
			}
		}
	}
	for _, res := range results {
		if err := emit(w, jsonOut, res); err != nil {
			return err
		}
	}
	return nil
}

// emit renders a result as its table or as JSON.
func emit(w io.Writer, jsonOut bool, res *sim.Result) error {
	if !jsonOut {
		_, err := fmt.Fprintf(w, "%s\n", res.Text)
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": res.Experiment, "result": res.Data})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "womsim:", err)
	os.Exit(1)
}

// printDetail writes to w the full run summary of bench on every
// architecture, then the energy comparison of the four runs.
func printDetail(w io.Writer, params sim.Params, bench string) error {
	params.Bench, params.Suite = []string{bench}, ""
	runs, err := sim.Arches(context.Background(), params)
	if err != nil {
		return err
	}
	for _, run := range runs {
		fmt.Fprintln(w, run.Summary())
	}
	table, err := energy.Compare(energy.Default(), runs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "energy (internal/energy default pricing; §3.2 refresh = read + row write):")
	_, err = fmt.Fprint(w, table)
	return err
}
