package sim

import (
	"context"
	"sync/atomic"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/trace"
)

// TelemetryFunc receives finalized telemetry windows from an experiment that
// supports windowed collection (currently "replay", like progress). arch is
// the architecture label; callbacks may arrive concurrently from the
// parallel per-architecture simulations, but windows of one arch arrive in
// index order.
type TelemetryFunc func(arch string, w telemetry.Window)

// ClassCountsFunc receives one finished simulation's write-class totals,
// indexed by probe write kind (probe.WriteFlipNWrite … probe.WriteAlpha).
// Experiments running many simulations call it once per simulation;
// consumers accumulate.
type ClassCountsFunc func(counts [probe.NumWriteKinds]uint64)

// Observer is the set of instruments that rides with a run (WithObserver).
// Every simulation the run makes attaches it when it starts and reports to
// it when it finishes, so its funcs may be called concurrently from the
// run's parallel simulations. The zero value observes nothing.
type Observer struct {
	// Progress receives running (done, total) record counts. Only replay,
	// whose record count is known up front, reports progress.
	Progress ProgressFunc
	// Telemetry receives the finalized windows of replay's simulations as
	// their simulated clocks advance; other experiments collect none.
	// TelemetryWindowNs ≤ 0 selects telemetry.DefaultWindowNs.
	Telemetry         TelemetryFunc
	TelemetryWindowNs int64
	// ClassCounts receives every simulation's write-class totals.
	ClassCounts ClassCountsFunc
	// Events, when set, is the live event counter of every simulation
	// (memctrl.Config.Events). The controllers advance it atomically in
	// strides, so one counter shows a still-running job's host-time
	// throughput (simulated events per second) across its simulations.
	Events *atomic.Int64
	// Attach, when set, adds probe sinks to every simulation. It receives
	// the simulation's architecture name (memctrl.Config.ArchName) and
	// config, and returns the sinks and the function, possibly nil, that
	// receives the finished run.
	Attach func(arch string, cfg memctrl.Config) ([]probe.Sink, func(*stats.Run))
}

type observerKey struct{}

// WithObserver returns a context asking every simulation run under it to
// be observed by o.
func WithObserver(ctx context.Context, o Observer) context.Context {
	return context.WithValue(ctx, observerKey{}, o)
}

// observerOf is the Observer on ctx; the zero Observer when absent.
func observerOf(ctx context.Context) Observer {
	if ctx == nil {
		return Observer{}
	}
	o, _ := ctx.Value(observerKey{}).(Observer)
	return o
}

// WithTelemetry returns ctx with its Observer's Telemetry set to f and
// TelemetryWindowNs to windowNs.
//
// Deprecated: set Observer.Telemetry through WithObserver. It is kept while
// perfbench calls it.
func WithTelemetry(ctx context.Context, f TelemetryFunc, windowNs int64) context.Context {
	o := observerOf(ctx)
	o.Telemetry, o.TelemetryWindowNs = f, windowNs
	return WithObserver(ctx, o)
}

// WithClassCounts returns ctx with its Observer's ClassCounts set to f.
//
// Deprecated: set Observer.ClassCounts through WithObserver. It is kept
// while perfbench calls it.
func WithClassCounts(ctx context.Context, f ClassCountsFunc) context.Context {
	o := observerOf(ctx)
	o.ClassCounts = f
	return WithObserver(ctx, o)
}

// replayArch is what Replay hands runCell for one architecture: the label
// of its telemetry windows, and the record count, shared across the
// architectures, that its progress adds to.
type replayArch struct {
	label string
	done  *atomic.Int64
	total int64
}

// instrument attaches to cfg the instruments of ctx's Observer and returns
// the source the simulation reads (recs) and the function that reports the
// instruments once the run has finished. It is the Observer's only reader,
// and every simulation goes through here:
//   - Events: the shared live event counter, as cfg.Events;
//   - ClassCounts: a write-class counter on cfg.Probe, reported after the
//     run;
//   - Attach: the sinks it returns, on cfg.Probe;
//   - for a replay (rep not nil) only, Progress and Telemetry: the source
//     counts its records into rep's total, and a telemetry collector on
//     cfg.Probe streams windows labelled rep.label.
func instrument(ctx context.Context, cfg *memctrl.Config, recs []trace.Record, rep *replayArch) (trace.Source, func(*stats.Run)) {
	o := observerOf(ctx)
	cfg.Events = o.Events
	var src trace.Source = trace.NewSliceSource(recs)
	var sinks []probe.Sink
	var col *telemetry.Collector
	if rep != nil {
		src = newProgressSource(src, rep.done, rep.total, o.Progress)
		if o.Telemetry != nil {
			col = telemetry.New(telemetry.Options{
				WindowNs: o.TelemetryWindowNs,
				Banks:    cfg.Servers(),
				OnWindow: func(w telemetry.Window) { o.Telemetry(rep.label, w) },
			})
			sinks = append(sinks, col)
		}
	}
	var counter *probe.CounterSink
	if o.ClassCounts != nil {
		counter = probe.NewCounterSink()
		sinks = append(sinks, counter)
	}
	var attached func(*stats.Run)
	if o.Attach != nil {
		var more []probe.Sink
		more, attached = o.Attach(cfg.ArchName(), *cfg)
		sinks = append(sinks, more...)
	}
	if len(sinks) > 0 {
		cfg.Probe = probe.New(sinks...)
	}
	return src, func(run *stats.Run) {
		if col != nil {
			col.Finish(rep.label, run.SimulatedNs)
		}
		if counter != nil {
			var counts [probe.NumWriteKinds]uint64
			for k := range counts {
				counts[k] = counter.Count(probe.Kind(k))
			}
			o.ClassCounts(counts)
		}
		if attached != nil {
			attached(run)
		}
	}
}
