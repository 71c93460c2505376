package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/health"
	"womcpcm/internal/metrics/metricstest"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
	"womcpcm/internal/tsdb"
)

// TestMetricsSurface scrapes a coordinator wired the way womd wires one
// with every plane on — runtime poller, alerts with one firing, spans,
// the coordinator with one federated worker, tenants, history — and holds
// /metrics to the strict checker. Its ordered family list must equal
// testdata/metrics_surface.golden, captured from the hand-written writers
// the collectors replaced, less the one family removed since:
// womd_history_malformed_lines_total.
func TestMetricsSurface(t *testing.T) {
	poller := perfmon.NewPoller(time.Hour)
	poller.Start()
	defer poller.Stop()
	alerts, err := health.NewEngine(health.Config{
		Rules: health.RulesConfig{Rules: []health.Rule{{
			Name: "slo-burn", Kind: health.KindBurnRate, Severity: "page", Objective: 0.99,
		}}},
		Signals: health.Signals{
			Tenants: func() []health.TenantStat {
				return []health.TenantStat{{Name: "interactive", DeadlineMs: 50}}
			},
			TenantSLO: func(string, time.Duration) (uint64, uint64, bool) { return 500, 1000, true },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	alerts.EvalOnce()
	history, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer history.Close()
	scheduler := sched.New(sched.Config{Tenants: []sched.TenantClass{
		{Name: "interactive", DeadlineMs: 60_000}, {Name: "batch"},
	}})

	tracer := span.New(span.Config{Service: "coordinator", Seed: 42})
	coord := NewCoordinator(Config{
		Logger:    slog.New(slog.DiscardHandler),
		Heartbeat: 100 * time.Millisecond, EvictAfter: 10 * time.Second,
		Tracer: tracer,
	})
	mgr := engine.New(engine.Config{
		Workers: 2, Queue: engine.NewTenantQueue(scheduler),
		Execute: coord.Execute, Tracer: tracer,
	})
	coord.AttachManager(mgr)
	coord.Start()
	srv := engine.NewServer(mgr,
		engine.WithCollector(poller.Collect),
		engine.WithAlerts(alerts), engine.WithCollector(alerts.Collect),
		engine.WithCollector(tracer.Collect),
		engine.WithCollector(coord.Collect),
		engine.WithCollector(scheduler.Collect),
		engine.WithHistory(history), engine.WithCollector(history.Collect))
	mux := http.NewServeMux()
	mux.Handle("/cluster/v1/", coord.Handler())
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	defer func() {
		ts.Close()
		coord.Stop()
		mgr.Shutdown(context.Background()) //nolint:errcheck
	}()
	tc := &testCluster{t: t, coord: coord, mgr: mgr, ts: ts, logs: &syncBuffer{}}
	tc.addWorker("alpha")

	job, err := mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "fig5", Tenant: "interactive",
		Params: sim.Params{Requests: 400, Bench: []string{"qsort"}, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, engine.StateSucceeded, 60*time.Second)
	coord.FederateOnce(context.Background())
	history.ScrapeOnce(srv.Collect)

	body := httpGetBody(t, ts.URL+"/metrics")
	types, samples := metricstest.Parse(t, body)
	backed := make(map[string]bool)
	for _, s := range samples {
		backed[metricstest.BaseName(s.Name)] = true
		backed[s.Name] = true
	}
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, name)
			if f := strings.Fields(name); !backed[f[0]] {
				t.Errorf("# TYPE %s has no samples", name)
			}
		}
	}
	if len(types) != len(got) {
		t.Fatalf("%d TYPE lines, %d distinct families", len(got), len(types))
	}

	golden, err := os.ReadFile("testdata/metrics_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if line != "womd_history_malformed_lines_total counter" {
			want = append(want, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("family list drifted from the golden:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
