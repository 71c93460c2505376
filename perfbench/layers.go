package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

const (
	// layerRecords is the per-profile record count of the generation and
	// event-loop cells.
	layerRecords = 20_000
	// layerReps is how many times each layer cell repeats; it reports the
	// median.
	layerReps = 3
	// idleSeconds is the quiet interval womd.idle_cpu_ms_per_s covers: one
	// full history self-scrape period at womd's default -history-scrape.
	idleSeconds = 5
)

// memProfiles are the pre-generated inputs of the event-loop cells: one
// benchmark from each suite plus a write-heavy one.
var memProfiles = []string{"464.h264ref", "470.lbm", "qsort", "ocean"}

// archNames are the metric names of core.Arches(), in its order.
var archNames = []string{"baseline", "wom", "refresh", "wcpcm"}

// layers times calls into each layer's public functions. Each cell runs
// under a span named after the metric it feeds, without the unit suffix.
type layers struct {
	e  *env
	sc scope
	p  pass
}

// put records a per-layer metric.
func (l *layers) put(name string, v float64, unit, note string) {
	l.p.metrics[name] = metric{v, unit}
	l.e.line(name, v, unit, note)
}

// check counts one correctness check of the suite.
func (l *layers) check(err error) {
	l.p.attempted++
	if err != nil {
		l.p.failed++
		l.e.logf("  check: %v", err)
	}
}

// timed runs f under a span and returns its wall time.
func (l *layers) timed(name string, f func() error) (time.Duration, error) {
	sp := l.sc.start(name)
	t := time.Now()
	err := f()
	d := time.Since(t)
	sp.End()
	return d, err
}

// runLayers runs the layer suite under e.sc and returns its per-layer
// metrics.
func runLayers(ctx context.Context, e *env) (pass, error) {
	l := &layers{e: e, sc: e.sc, p: pass{metrics: map[string]metric{}}}
	e.logf("layer suite:")
	steps := []func(context.Context) error{
		l.generate, l.decode, l.newSystem, l.eventLoop, l.multiChannel,
		l.probeOverhead, l.telemetryOverhead, l.resultStore, l.engine, l.parallelEff,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return l.p, err
		}
	}
	return l.p, nil
}

// generate times workload.Generate over all 20 figure profiles.
func (l *layers) generate(context.Context) error {
	geo := pcm.DefaultGeometry()
	var per []float64
	for range layerReps {
		n := 0
		d, err := l.timed("workload", func() error {
			for _, p := range workload.Profiles() {
				recs, err := workload.Generate(p, geo, l.e.seed, layerRecords)
				if err != nil {
					return err
				}
				n += len(recs)
			}
			return nil
		})
		if err != nil {
			return err
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	l.put("workload.ns_per_rec", median(per), "ns", "workload.Generate, 20 profiles")
	return nil
}

// decode times trace.Collect(trace.NewAutoReader(...)) over the replay
// workload's binary trace.
func (l *layers) decode(ctx context.Context) error {
	in, err := makeTrace(ctx, l.sc, l.e.seed, replayRecords)
	if err != nil {
		return err
	}
	var per []float64
	for range layerReps {
		var recs []trace.Record
		d, err := l.timed("trace.decode", func() error {
			var err error
			recs, err = trace.Collect(trace.NewAutoReader(bytes.NewReader(in.bin)))
			return err
		})
		if err != nil {
			return err
		}
		if len(recs) != len(in.recs) || recs[len(recs)-1] != in.recs[len(recs)-1] {
			l.check(fmt.Errorf("decoded %d records, encoded %d", len(recs), len(in.recs)))
		}
		per = append(per, float64(d.Nanoseconds())/float64(len(recs)))
	}
	l.put("trace.decode_ns_per_rec", median(per), "ns", fmt.Sprintf("%d-record binary trace", len(in.recs)))
	return nil
}

// newSystem times core.NewSystem for every architecture.
func (l *layers) newSystem(context.Context) error {
	const each = 20
	var per []float64
	for range layerReps {
		d, err := l.timed("core.new_system", func() error {
			for range each {
				for _, a := range core.Arches() {
					if _, err := core.NewSystem(a, core.DefaultOptions()); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		per = append(per, float64(d.Nanoseconds())/1e3/float64(each*len(core.Arches())))
	}
	l.put("core.new_system_us", median(per), "us", "default geometry, mean of 4 architectures")
	return nil
}

// memRecords generates the event-loop inputs.
func (l *layers) memRecords() ([][]trace.Record, error) {
	var out [][]trace.Record
	_, err := l.timed("workload", func() error {
		for _, name := range memProfiles {
			p, err := workload.ProfileByName(name)
			if err != nil {
				return err
			}
			recs, err := workload.Generate(p, pcm.DefaultGeometry(), l.e.seed, layerRecords)
			if err != nil {
				return err
			}
			out = append(out, recs)
		}
		return nil
	})
	return out, err
}

// eventLoop times core.System.SimulateRecords with a nil probe on every
// architecture and counts its events and heap allocations.
func (l *layers) eventLoop(context.Context) error {
	inputs, err := l.memRecords()
	if err != nil {
		return err
	}
	for i, a := range core.Arches() {
		sys, err := core.NewSystem(a, core.DefaultOptions())
		if err != nil {
			return err
		}
		name := "memctrl." + archNames[i]
		var per, allocs []float64
		var events uint64
		for rep := range layerReps {
			var n uint64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := l.timed(name, func() error {
				for _, recs := range inputs {
					run, err := sys.SimulateRecords(recs)
					if err != nil {
						return err
					}
					n += run.Events
				}
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			if rep == 0 {
				events = n
			} else if n != events {
				l.check(fmt.Errorf("%s: %d events, first repetition had %d", name, n, events))
			}
			per = append(per, float64(d.Nanoseconds())/float64(n))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		}
		l.put(name+".ns_per_event", median(per), "ns", "SimulateRecords, nil probe")
		l.put(name+".allocs_per_event", median(allocs), "count", "")
		l.put(name+".events", float64(events), "count", fmt.Sprintf("%d profiles x %d records", len(inputs), layerRecords))
	}
	return nil
}

// multiChannel times a 4-channel PCM-refresh system on the same inputs.
// Events come from the config's shared counter: MultiChannel's merged run
// carries only the first channel's event count.
func (l *layers) multiChannel(context.Context) error {
	inputs, err := l.memRecords()
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(core.Refresh, core.DefaultOptions())
	if err != nil {
		return err
	}
	var per []float64
	for range layerReps {
		var events atomic.Int64
		cfg := sys.Config()
		cfg.Events = &events
		d, err := l.timed("memctrl.multichannel", func() error {
			for _, recs := range inputs {
				mc, err := memctrl.NewMultiChannel(cfg, 4)
				if err != nil {
					return err
				}
				if _, err := mc.Run(trace.NewSliceSource(recs)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		per = append(per, float64(d.Nanoseconds())/float64(events.Load()))
	}
	l.put("memctrl.multichannel.ns_per_event", median(per), "ns", "NewMultiChannel(refresh, 4).Run")
	return nil
}

// overhead alternates base and with reps times and returns the median
// with-time over the median base-time, minus one. The result is signed: a
// cost smaller than the noise between repetitions can come out negative.
func (l *layers) overhead(name string, reps int, base, with func() error) (float64, error) {
	var b, w []float64
	for range reps {
		d, err := l.timed(name, base)
		if err != nil {
			return 0, err
		}
		b = append(b, d.Seconds())
		d, err = l.timed(name, with)
		if err != nil {
			return 0, err
		}
		w = append(w, d.Seconds())
	}
	return median(w)/median(b) - 1, nil
}

// probeOverhead compares a one-benchmark fig5 with and without the class
// counter womd attaches to every job.
func (l *layers) probeOverhead(ctx context.Context) error {
	exp, err := sim.LookupExperiment("fig5")
	if err != nil {
		return err
	}
	params := sim.Params{Requests: layerRecords, Seed: l.e.seed, Bench: []string{"qsort"}, Parallelism: 1}
	var counted uint64
	withCtx := sim.WithClassCounts(ctx, func(c [probe.NumWriteKinds]uint64) {
		for _, v := range c {
			counted += v
		}
	})
	frac, err := l.overhead("probe", 9,
		func() error { _, err := exp.Run(ctx, params); return err },
		func() error { _, err := exp.Run(withCtx, params); return err })
	if err != nil {
		return err
	}
	if counted == 0 {
		l.check(fmt.Errorf("class counter saw no writes"))
	}
	l.put("probe.overhead_frac", frac, "ratio", "fig5 qsort with vs without sim.WithClassCounts, signed")
	return nil
}

// telemetryOverhead compares sim.Replay with and without the telemetry
// collector.
func (l *layers) telemetryOverhead(ctx context.Context) error {
	in, err := makeTrace(ctx, l.sc, l.e.seed, replayRecords/2)
	if err != nil {
		return err
	}
	windows := 0
	withCtx := sim.WithTelemetry(ctx, func(string, telemetry.Window) { windows++ }, 0)
	replayIn := func(ctx context.Context) func() error {
		return func() error {
			cfg, err := sim.Params{Requests: len(in.recs), Parallelism: 1}.Config(ctx)
			if err != nil {
				return err
			}
			_, err = sim.Replay(cfg, replayLabel, in.recs)
			return err
		}
	}
	frac, err := l.overhead("telemetry", layerReps, replayIn(ctx), replayIn(withCtx))
	if err != nil {
		return err
	}
	if windows == 0 {
		l.check(fmt.Errorf("telemetry produced no windows"))
	}
	l.put("telemetry.overhead_frac", frac, "ratio", "sim.Replay with vs without sim.WithTelemetry, signed")
	return nil
}

// resultStore times Put, Get and Open on a temp store holding the service
// workload's result payloads: one-benchmark fig5 results.
func (l *layers) resultStore(ctx context.Context) error {
	const entries = 64
	exp, err := sim.LookupExperiment("fig5")
	if err != nil {
		return err
	}
	var payloads []*sim.Result
	_, err = l.timed("sim.reference", func() error {
		for i, p := range workload.Profiles()[:8] {
			params := sim.Params{Requests: missRequests, Seed: jobSeed(l.e.seed, i), Bench: []string{p.Name}, Parallelism: 1}
			res, err := exp.Run(ctx, params)
			if err != nil {
				return err
			}
			payloads = append(payloads, res)
		}
		return nil
	})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.e.work, "layer-store-")
	if err != nil {
		return err
	}
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		return err
	}
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", jobSeed(l.e.seed, i))
	}
	d, err := l.timed("resultstore.put", func() error {
		for i, k := range keys {
			res := payloads[i%len(payloads)]
			if err := store.Put(resultstore.Entry{Key: k, Experiment: res.Experiment, Params: json.RawMessage(`{}`), Result: res}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		store.Close()
		return err
	}
	l.put("resultstore.put_us", float64(d.Nanoseconds())/1e3/entries, "us", fmt.Sprintf("%d one-benchmark fig5 results", entries))
	var got []float64
	for range layerReps {
		d, err := l.timed("resultstore.get", func() error {
			for _, k := range keys {
				if _, ok := store.Get(k); !ok {
					return fmt.Errorf("resultstore: stored key %s missing", k[:12])
				}
			}
			return nil
		})
		if err != nil {
			store.Close()
			return err
		}
		got = append(got, float64(d.Nanoseconds())/1e3/entries)
	}
	if err := store.Close(); err != nil {
		return err
	}
	l.put("resultstore.get_us", median(got), "us", "")
	var opens []float64
	for range 5 {
		var s *resultstore.Store
		d, err := l.timed("resultstore.open", func() error {
			var err error
			s, err = resultstore.Open(dir, resultstore.Options{})
			return err
		})
		if err != nil {
			return err
		}
		if s.Len() != entries {
			l.check(fmt.Errorf("reopened store holds %d entries, want %d", s.Len(), entries))
		}
		if err := s.Close(); err != nil {
			return err
		}
		opens = append(opens, float64(d.Nanoseconds())/1e6)
	}
	l.put("resultstore.open_ms", median(opens), "ms", fmt.Sprintf("replay of %d entries", entries))
	return nil
}

// engine measures womd's own costs: idle CPU, then a short service and
// replay loop for the job engine's execution, overhead and upload times.
func (l *layers) engine(ctx context.Context) error {
	svc := &service{e: l.e, profile: workload.Profiles()}
	defer svc.close()
	if _, err := svc.setup(ctx); err != nil {
		return err
	}
	pid := svc.d.proc.pid()
	c0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	sp := l.sc.start("womd.idle")
	select {
	case <-time.After(idleSeconds * time.Second):
	case <-ctx.Done():
		return ctx.Err()
	}
	sp.End()
	c1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	l.put("womd.idle_cpu_ms_per_s", float64(c1-c0)/1e6/idleSeconds, "ms/s", fmt.Sprintf("quiet %d s after set-up", idleSeconds))

	p, err := svc.run(ctx, 2, l.sc)
	if err != nil {
		return err
	}
	l.p.attempted += p.attempted
	l.p.failed += p.failed
	var exec, over []float64
	for _, op := range svc.ops {
		if op.err != nil {
			continue
		}
		over = append(over, op.engineMs)
		if op.miss {
			exec = append(exec, op.execMs)
		}
	}
	l.put("engine.exec_ms", median(exec), "ms", fmt.Sprintf("miss jobs, n=%d", len(exec)))
	l.put("engine.overhead_ms", median(over), "ms", fmt.Sprintf("HTTP, SSE and result encoding, n=%d", len(over)))
	svc.close()

	rp := &replay{e: l.e, n: replayRecords / 5}
	defer rp.close()
	if _, err := rp.setup(ctx); err != nil {
		return err
	}
	p, err = rp.run(ctx, 1.5, l.sc)
	if err != nil {
		return err
	}
	l.p.attempted += p.attempted
	l.p.failed += p.failed
	l.put("engine.upload_ms", median(rp.uploads), "ms", fmt.Sprintf("POST /v1/traces of %d records, n=%d", rp.n, len(rp.uploads)))
	return nil
}

// parallelEff runs womsim -fig all once: CPU over wall time × cores.
func (l *layers) parallelEff(ctx context.Context) error {
	var r womsimRun
	_, err := l.timed("womsim.run", func() error {
		var err error
		r, err = runWomsim(ctx, filepath.Join(l.e.bin, "womsim"), figuresRequests, l.e.seed)
		return err
	})
	if err != nil {
		return err
	}
	eff := r.cpu.Seconds() / (r.wall.Seconds() * float64(runtime.NumCPU()))
	l.put("sim.parallel_eff", eff, "ratio", fmt.Sprintf("womsim -fig all, %d cores", runtime.NumCPU()))
	return nil
}
