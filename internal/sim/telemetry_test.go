package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// TestReplayTelemetry checks the replay experiment streams windowed
// telemetry to an Observer's Telemetry: all four architectures report,
// windows of one architecture arrive in index order, and the write-class
// totals match the replayed writes.
func TestReplayTelemetry(t *testing.T) {
	recs := progressTrace(4000)
	var (
		mu      sync.Mutex
		windows = map[string][]telemetry.Window{}
	)
	const windowNs = 10_000
	ctx := WithObserver(context.Background(), Observer{Telemetry: func(arch string, w telemetry.Window) {
		mu.Lock()
		windows[arch] = append(windows[arch], w)
		mu.Unlock()
	}, TelemetryWindowNs: windowNs})
	cfg := ExpConfig{Requests: len(recs), Ctx: ctx}
	res, err := Replay(cfg, "telemetry", recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != len(core.Arches()) {
		t.Fatalf("got windows for %d architectures, want %d", len(windows), len(core.Arches()))
	}
	writes := 0
	for _, r := range recs {
		if r.Op == trace.Write {
			writes++
		}
	}
	for arch, ws := range windows {
		if len(ws) == 0 {
			t.Fatalf("%s: no windows", arch)
		}
		var total uint64
		for i, w := range ws {
			if w.Index != int64(i) {
				t.Fatalf("%s: window %d has index %d (out of order)", arch, i, w.Index)
			}
			if w.EndNs-w.StartNs != windowNs {
				t.Fatalf("%s: window %d width %d, want %d", arch, i, w.EndNs-w.StartNs, windowNs)
			}
			total += w.Writes.Total()
		}
		// Every demand write is classified exactly once; WCPCM adds victim
		// write-backs on top.
		if total < uint64(writes) {
			t.Errorf("%s: windowed writes %d < replayed writes %d", arch, total, writes)
		}
		// Demand latencies flow through the controller hook.
		var reads uint64
		for _, w := range ws {
			reads += w.Read.Count
		}
		if reads == 0 {
			t.Errorf("%s: no read latencies in any window", arch)
		}
	}
	// Telemetry must not perturb the simulation itself.
	plain, err := Replay(ExpConfig{Requests: len(recs)}, "telemetry", recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Runs {
		if res.Runs[i].WriteLatency.Mean() != plain.Runs[i].WriteLatency.Mean() {
			t.Errorf("%s: telemetry changed mean write latency", res.Runs[i].Arch)
		}
	}
}

// TestReplayClassCounts checks an Observer's ClassCounts receives
// per-architecture write-class totals: four callbacks (one per
// architecture), each summing to at least the replayed demand writes.
func TestReplayClassCounts(t *testing.T) {
	recs := progressTrace(2000)
	var (
		mu    sync.Mutex
		calls [][probe.NumWriteKinds]uint64
	)
	ctx := WithObserver(context.Background(), Observer{ClassCounts: func(c [probe.NumWriteKinds]uint64) {
		mu.Lock()
		calls = append(calls, c)
		mu.Unlock()
	}})
	if _, err := Replay(ExpConfig{Requests: len(recs), Ctx: ctx}, "classes", recs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(core.Arches()) {
		t.Fatalf("got %d class-count reports, want %d", len(calls), len(core.Arches()))
	}
	for i, c := range calls {
		var sum uint64
		for _, n := range c {
			sum += n
		}
		if sum == 0 {
			t.Errorf("report %d: all class counts zero", i)
		}
	}
}

// TestRunArchClassCounts checks that every registry experiment honors an
// Observer's ClassCounts and Events: the womd /metrics write-class feed and
// the slow-job monitor's live event rate must cover every job type. replay
// needs an uploaded trace; TestReplayClassCounts covers it.
func TestRunArchClassCounts(t *testing.T) {
	qsort, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range Experiments() {
		if exp.NeedsTrace {
			continue
		}
		t.Run(exp.Name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				writes uint64
				events atomic.Int64
			)
			ctx := WithObserver(context.Background(), Observer{ClassCounts: func(c [probe.NumWriteKinds]uint64) {
				mu.Lock()
				for _, n := range c {
					writes += n
				}
				mu.Unlock()
			}, Events: &events})
			params := Params{Requests: 2000, Seed: 1, Bench: []string{"qsort"}}
			if exp.NeedsProfile {
				params.Bench, params.Profile = nil, &qsort
			}
			if _, err := exp.Run(ctx, params); err != nil {
				t.Fatal(err)
			}
			if writes == 0 {
				t.Error("no write-class counts reported")
			}
			if events.Load() == 0 {
				t.Error("no live simulator events counted")
			}
		})
	}
}

// BenchmarkReplayTelemetry prices the telemetry plane where womd pays it: a
// replay job's four simulations over a 50k-record FFT trace at the paper's
// default geometry (16 ranks × 32 banks plus cache arrays), one worker,
// without ("off") and with ("on") an Observer's Telemetry. The gap between the two is
// the enabled-path cost (make bench-probe).
func BenchmarkReplayTelemetry(b *testing.B) {
	p, err := workload.ProfileByName("FFT")
	if err != nil {
		b.Fatal(err)
	}
	recs, err := workload.Generate(p, pcm.DefaultGeometry(), 1, 50_000)
	if err != nil {
		b.Fatal(err)
	}
	windows := 0
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{
		{"off", context.Background()},
		{"on", WithObserver(context.Background(), Observer{Telemetry: func(string, telemetry.Window) { windows++ }})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := ExpConfig{Requests: len(recs), Parallelism: 1, Ctx: bc.ctx}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Replay(cfg, "bench", recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if windows == 0 {
		b.Fatal("telemetry produced no windows")
	}
}

// TestObserverWrappers checks WithTelemetry and WithClassCounts set their
// fields on the Observer already on the context and keep the others.
func TestObserverWrappers(t *testing.T) {
	var events atomic.Int64
	ctx := WithObserver(context.Background(), Observer{Events: &events})
	ctx = WithTelemetry(ctx, func(string, telemetry.Window) {}, 500)
	ctx = WithClassCounts(ctx, func([probe.NumWriteKinds]uint64) {})
	o := observerOf(ctx)
	if o.Events != &events || o.Telemetry == nil || o.TelemetryWindowNs != 500 || o.ClassCounts == nil {
		t.Errorf("observer after the wrappers = %+v", o)
	}
	if o := observerOf(context.Background()); o.Events != nil || o.Telemetry != nil || o.ClassCounts != nil {
		t.Errorf("bare context observer = %+v, want the zero Observer", o)
	}
}

// TestArchesAttach checks Arches runs the first selected benchmark once on
// each architecture, returns the runs in core.Arches() order, and hands
// each simulation's architecture name and finished run to Observer.Attach.
func TestArchesAttach(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[string]*stats.Run{}
	)
	ctx := WithObserver(context.Background(), Observer{
		Attach: func(arch string, _ memctrl.Config) ([]probe.Sink, func(*stats.Run)) {
			return []probe.Sink{probe.NewCounterSink()}, func(run *stats.Run) {
				mu.Lock()
				seen[arch] = run
				mu.Unlock()
			}
		},
	})
	runs, err := Arches(ctx, Params{Requests: 2000, Bench: []string{"qsort", "FFT"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(core.Arches()) || len(seen) != len(core.Arches()) {
		t.Fatalf("%d runs, %d attached, want %d each", len(runs), len(seen), len(core.Arches()))
	}
	for i, a := range core.Arches() {
		if runs[i].Arch != a.String() || runs[i].Workload != "qsort" {
			t.Errorf("run %d is %s / %s, want %s / qsort", i, runs[i].Arch, runs[i].Workload, a)
		}
		if seen[a.String()] != runs[i] {
			t.Errorf("%s: Attach received a different run", a)
		}
	}
}
