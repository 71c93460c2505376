package engine

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"womcpcm/internal/health"
	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
)

func getReadyz(t *testing.T, ts *httptest.Server) (int, Readiness) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rd Readiness
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &rd); err != nil {
		t.Fatalf("readyz body %q: %v", raw, err)
	}
	return resp.StatusCode, rd
}

// TestReadyzLifecycle walks readiness through its three answers: ready,
// queue-saturated, draining — while /healthz stays a liveness 200
// throughout.
func TestReadyzLifecycle(t *testing.T) {
	release := make(chan struct{})
	mgr := New(Config{
		Workers:    1,
		QueueDepth: 2,
		run: func(ctx context.Context, job *Job) (*sim.Result, error) {
			select {
			case <-release:
				return nil, errors.New("released")
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	if status, rd := getReadyz(t, ts); status != http.StatusOK || !rd.Ready {
		t.Fatalf("fresh readyz = %d %+v, want 200 ready", status, rd)
	}

	// One job blocks the single worker; two more fill the depth-2 queue,
	// which is ≥ 90% of capacity → not ready.
	for i := 0; i < 3; i++ {
		if status, _ := postJSON(t, ts, JobRequest{Experiment: "fig5", Params: fastParams()}); status != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, status)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, rd := getReadyz(t, ts)
		if status == http.StatusServiceUnavailable {
			if rd.Ready || rd.Reason == "" || rd.QueueCap != 2 {
				t.Fatalf("saturated readyz body = %+v", rd)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never saturated (last %d %+v)", status, rd)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Liveness is unaffected by saturation.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during saturation: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if status, rd := getReadyz(t, ts); status == http.StatusOK && rd.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never recovered after release")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Draining: still alive, never ready again.
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, rd := getReadyz(t, ts); status != http.StatusServiceUnavailable || rd.Reason != "draining" {
		t.Fatalf("draining readyz = %d %+v", status, rd)
	}
}

func TestAlertRoutes(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck

	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Alerts []health.AlertView   `json:"alerts"`
		Counts map[health.State]int `json:"counts"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alerts = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("alerts body %q: %v", raw, err)
	}
	if len(body.Alerts) != 0 {
		t.Fatalf("quiet engine has alerts: %+v", body.Alerts)
	}

	resp, err = http.Get(ts.URL + "/v1/alerts/al-000042")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown alert = %d, want 404", resp.StatusCode)
	}
}

// TestExemplarObservedOnSettle checks the engine feeds the alerting
// plane's exemplar store as jobs finish.
func TestExemplarObservedOnSettle(t *testing.T) {
	mgr := New(Config{Workers: 1, Scheduler: sched.New(sched.Config{
		Tenants: []sched.TenantClass{{Name: "alpha"}},
	})})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	status, view := postJSON(t, ts, JobRequest{
		Experiment: "fig5", Params: fastParams(), Tenant: "alpha",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	pollResult(t, ts, view.ID)

	ex := mgr.exemplars
	got, ok := ex.Get("service")
	if !ok || got.JobID != view.ID {
		t.Fatalf("service exemplar = %+v ok=%v, want job %s", got, ok, view.ID)
	}
	if got, ok := ex.Get("tenant:alpha"); !ok || got.JobID != view.ID {
		t.Fatalf("tenant exemplar = %+v ok=%v", got, ok)
	}
}

// TestBurnWindowLimitIsSLOHorizon pins health's burn-rate window limit to
// the reach of the scheduler's SLO ring that answers those windows and
// that backfillSLO seeds.
func TestBurnWindowLimitIsSLOHorizon(t *testing.T) {
	if health.MaxBurnWindow != sched.SLOHorizon {
		t.Fatalf("health.MaxBurnWindow = %v, sched.SLOHorizon = %v", health.MaxBurnWindow, sched.SLOHorizon)
	}
}
