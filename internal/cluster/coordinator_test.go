package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/metrics"
	"womcpcm/internal/sim"
)

func postTo(t *testing.T, url string, in, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestRegisterFingerprintMismatch checks a worker built with a different sim
// registry is refused with 409 — mixed builds must not serve jobs.
func TestRegisterFingerprintMismatch(t *testing.T) {
	coord := NewCoordinator(Config{})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	resp := postTo(t, ts.URL+"/cluster/v1/register", RegisterRequest{
		Name: "bad", Addr: "http://127.0.0.1:1", Fingerprint: "deadbeefdeadbeef",
	}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched fingerprint register = HTTP %d, want 409", resp.StatusCode)
	}

	var ok RegisterResponse
	resp = postTo(t, ts.URL+"/cluster/v1/register", RegisterRequest{
		Name: "good", Addr: "http://127.0.0.1:2", Fingerprint: sim.RegistryFingerprint(),
	}, &ok)
	if resp.StatusCode != http.StatusOK || ok.ID == "" {
		t.Fatalf("matching register = HTTP %d id %q, want 200 with id", resp.StatusCode, ok.ID)
	}
}

// TestHeartbeatUnknownWorker checks an evicted or unknown id gets 404, the
// signal to re-register.
func TestHeartbeatUnknownWorker(t *testing.T) {
	coord := NewCoordinator(Config{})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	resp := postTo(t, ts.URL+"/cluster/v1/heartbeat", HeartbeatRequest{ID: "w-999"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat = HTTP %d, want 404", resp.StatusCode)
	}
}

// TestEvictionOnHeartbeatTimeout registers a worker that never heartbeats
// and checks the eviction loop removes it and counts it.
func TestEvictionOnHeartbeatTimeout(t *testing.T) {
	coord := NewCoordinator(Config{Heartbeat: 20 * time.Millisecond, EvictAfter: 80 * time.Millisecond})
	coord.Start()
	defer coord.Stop()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	postTo(t, ts.URL+"/cluster/v1/register", RegisterRequest{
		Name: "silent", Addr: "http://127.0.0.1:3", Fingerprint: sim.RegistryFingerprint(),
	}, nil)
	if n := coord.liveWorkers(); n != 1 {
		t.Fatalf("live workers after register = %d, want 1", n)
	}
	deadline := time.Now().Add(3 * time.Second)
	for coord.liveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := coord.metrics.Evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	var prom bytes.Buffer
	metrics.Write(&prom, coord.Collect())
	if !strings.Contains(prom.String(), "womd_cluster_evictions_total 1") {
		t.Errorf("WriteProm missing eviction counter:\n%s", prom.String())
	}
	if !strings.Contains(prom.String(), `womd_cluster_workers{state="active"} 0`) {
		t.Errorf("WriteProm missing workers gauge:\n%s", prom.String())
	}
}

// TestExecuteFallsBackWithoutWorkers checks a coordinator with an empty
// fleet runs jobs locally: the Execute hook declines and the manager's
// in-process path is the fallback.
func TestExecuteFallsBackWithoutWorkers(t *testing.T) {
	coord := NewCoordinator(Config{})
	mgr := engine.New(engine.Config{Workers: 1, QueueDepth: 4, Execute: coord.Execute})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	coord.AttachManager(mgr)

	job, err := mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "fig5",
		Params:     sim.Params{Requests: 500, Bench: []string{"qsort"}, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, engine.StateSucceeded, 30*time.Second)
	if res, err := job.Result(); err != nil || res == nil {
		t.Fatalf("local fallback result = %v, %v", res, err)
	}
	if w := job.View().Worker; w != "" {
		t.Errorf("local fallback job carries worker %q, want none", w)
	}
}

// waitState polls a job until it reaches want or the deadline passes.
func waitState(t *testing.T, job *engine.Job, want engine.State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if s := job.State(); s == want {
			return
		} else if s.Terminal() {
			_, err := job.Result()
			t.Fatalf("job %s reached %s (err %v), want %s", job.ID(), s, err, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", job.ID(), job.State(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
