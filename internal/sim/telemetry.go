package sim

import (
	"context"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/telemetry"
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

type telemetryCtxKey struct{}
type classCountsCtxKey struct{}

// telemetryOpts is the context payload of WithTelemetry.
type telemetryOpts struct {
	f        TelemetryFunc
	windowNs int64
}

// WithTelemetry returns a context asking telemetry-capable experiments to
// collect epoch-windowed series and stream finalized windows to f.
// windowNs ≤ 0 selects telemetry.DefaultWindowNs.
func WithTelemetry(ctx context.Context, f TelemetryFunc, windowNs int64) context.Context {
	if f == nil {
		return ctx
	}
	return context.WithValue(ctx, telemetryCtxKey{}, &telemetryOpts{f: f, windowNs: windowNs})
}

// telemetryOf extracts the WithTelemetry payload; nil when absent.
func telemetryOf(ctx context.Context) *telemetryOpts {
	if ctx == nil {
		return nil
	}
	o, _ := ctx.Value(telemetryCtxKey{}).(*telemetryOpts)
	return o
}

// WithClassCounts returns a context asking experiments to attach a probe
// counter to every simulation and report its write-class totals to f. All
// experiments honor it (unlike windowed telemetry, it needs no record
// stream semantics — just the always-cheap CounterSink).
func WithClassCounts(ctx context.Context, f ClassCountsFunc) context.Context {
	if f == nil {
		return ctx
	}
	return context.WithValue(ctx, classCountsCtxKey{}, f)
}

// classCountsOf extracts the ClassCountsFunc from ctx; nil when absent.
func classCountsOf(ctx context.Context) ClassCountsFunc {
	if ctx == nil {
		return nil
	}
	f, _ := ctx.Value(classCountsCtxKey{}).(ClassCountsFunc)
	return f
}

// instrument attaches to cfg the per-run instruments ctx asks for and
// returns the function that reports them once the run has finished. Every
// simulation an experiment runs goes through here:
//   - WithSimEvents: the shared live event counter, as cfg.Events;
//   - WithClassCounts: a write-class counter on cfg.Probe, reported to the
//     ClassCountsFunc after the run;
//   - WithTelemetry, when arch is not empty: a telemetry collector on
//     cfg.Probe streaming windows labelled arch. Only Replay passes one.
func instrument(ctx context.Context, cfg *memctrl.Config, arch string) func(*stats.Run) {
	cfg.Events = simEventsOf(ctx)
	var sinks []probe.Sink
	var col *telemetry.Collector
	if telem := telemetryOf(ctx); telem != nil && arch != "" {
		col = telemetry.New(telemetry.Options{
			WindowNs: telem.windowNs,
			Banks:    cfg.Servers(),
			OnWindow: func(w telemetry.Window) { telem.f(arch, w) },
		})
		sinks = append(sinks, col)
	}
	classes := classCountsOf(ctx)
	var counter *probe.CounterSink
	if classes != nil {
		counter = probe.NewCounterSink()
		sinks = append(sinks, counter)
	}
	if len(sinks) > 0 {
		cfg.Probe = probe.New(sinks...)
	}
	return func(run *stats.Run) {
		if col != nil {
			col.Finish(arch, run.SimulatedNs)
		}
		if counter != nil {
			var counts [probe.NumWriteKinds]uint64
			for k := range counts {
				counts[k] = counter.Count(probe.Kind(k))
			}
			classes(counts)
		}
	}
}
