package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"womcpcm/internal/health"
	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// TestOverloadFiresFastBurnAlert is the burn-rate end-to-end check: a
// burst of interactive jobs whose real queue wait blows the tenant's 50 ms
// deadline fires the fast-burn alert (served over /v1/alerts, annotated
// with an exemplar trace resolvable via the jobs API), and a recovery
// phase of on-time jobs that refills the error budget resolves it.
//
// Timing is deterministic: both workers are held by batch jobs while the
// burst queues, and are released only after the deadline has passed, so
// every burst job misses it; recovery jobs run one at a time on idle
// workers, so each starts well inside it.
func TestOverloadFiresFastBurnAlert(t *testing.T) {
	const deadline = 50 * time.Millisecond
	s := sched.New(sched.Config{
		MaxDepth: 4096,
		Tenants: []sched.TenantClass{
			{Name: "interactive", Weight: 4, DeadlineMs: deadline.Milliseconds()},
			{Name: "batch", Weight: 1},
		},
	})
	ex := health.NewExemplars()
	hold := make(chan struct{})
	mgr := New(Config{
		Workers:   2,
		Queue:     NewTenantQueue(s),
		Exemplars: ex,
		Tracer:    span.New(span.Config{Service: "burn-e2e", Seed: 11}),
		// Execution cost is not under test: every job returns at once
		// after the workers are released.
		run: func(ctx context.Context, job *Job) (*sim.Result, error) {
			select {
			case <-hold:
				return &sim.Result{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	released := false
	release := func() {
		if !released {
			released = true
			close(hold)
		}
	}
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	defer release()

	he, err := health.NewEngine(health.Config{
		Rules: health.RulesConfig{Rules: []health.Rule{{
			Name:      "interactive-slo",
			Kind:      health.KindBurnRate,
			Tenant:    "interactive",
			Objective: 0.5,
			FastBurn:  1.5,
			SlowBurn:  50, // keep the slow pair quiet; the fast pair is under test
		}}},
		Signals: health.Signals{
			Tenants: func() []health.TenantStat {
				views := s.Views()
				out := make([]health.TenantStat, 0, len(views))
				for _, v := range views {
					out = append(out, health.TenantStat{
						Name: v.Name, Depth: v.Depth,
						Sheds: v.Sheds, DeadlineMs: v.DeadlineMs,
					})
				}
				return out
			},
			TenantSLO: s.WindowSLO,
		},
		Exemplars: ex,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, WithAlerts(he)))
	defer ts.Close()

	seed := int64(1000)
	submit := func(tenant string) *Job {
		t.Helper()
		seed++
		job, err := mgr.Submit(context.Background(), JobRequest{
			Experiment: "fig5",
			Params: sim.Params{
				Requests: 20000, Seed: seed,
				Bench: []string{"qsort"}, Ranks: 4,
			},
			Tenant: tenant,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		return job
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		limit := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(limit) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	fetchAlert := func(state health.State) *health.AlertView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/alerts")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Alerts []health.AlertView `json:"alerts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		for i, a := range body.Alerts {
			if a.Rule == "interactive-slo-fast" && a.Subject == "interactive" && a.State == state {
				return &body.Alerts[i]
			}
		}
		return nil
	}

	// Overload: two batch jobs hold both workers, a burst of interactive
	// jobs queues behind them, and the workers stay held past the
	// deadline.
	submit("batch")
	submit("batch")
	waitFor("both workers held", func() bool { return mgr.Metrics().Running.Load() == 2 })
	const burst = 20
	for i := 0; i < burst; i++ {
		submit("interactive")
	}
	time.Sleep(2 * deadline)
	release()
	waitFor("burst drained", func() bool {
		return s.Depth() == 0 && mgr.Metrics().Running.Load() == 0
	})
	he.EvalOnce()
	fired := fetchAlert(health.StateFiring)
	if fired == nil {
		t.Fatalf("no firing interactive-slo-fast alert after %d missed deadlines", burst)
	}
	if fired.Annotations["exemplar_trace"] == "" || fired.Annotations["trace_url"] == "" {
		t.Fatalf("firing alert lacks exemplar annotations: %v", fired.Annotations)
	}
	resp, err := http.Get(ts.URL + fired.Annotations["trace_url"])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", fired.Annotations["trace_url"], resp.StatusCode)
	}

	// Recovery: on-time jobs refill the budget — 5× the misses puts
	// windowed attainment at ~0.83, well above the
	// 1 − objective·FastBurn = 0.25 floor the rule needs.
	for i := 0; i < 5*burst; i++ {
		job := submit("interactive")
		waitFor("recovery job "+job.ID(), func() bool { return job.State().Terminal() })
	}
	he.EvalOnce()
	resolved := fetchAlert(health.StateResolved)
	if resolved == nil {
		t.Fatalf("alert did not resolve after %d on-time dequeues", 5*burst)
	}
	if resolved.ID != fired.ID {
		t.Fatalf("resolved alert %s is not the fired alert %s", resolved.ID, fired.ID)
	}
	if resolved.Annotations["exemplar_trace"] == "" {
		t.Fatalf("resolved alert lost its exemplar: %v", resolved.Annotations)
	}
}
