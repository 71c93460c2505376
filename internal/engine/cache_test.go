package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
)

// openStore opens a result store in a fresh temp dir.
func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, mgr *Manager, id string) *Job {
	t.Helper()
	job, ok := mgr.Get(id)
	if !ok {
		t.Fatalf("job %s missing", id)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !job.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return job
}

// TestCacheHitSkipsExecution is the acceptance test for the tentpole:
// resubmitting an identical job is served from the store with zero harness
// invocations — the wall-time histogram (one observation per actual
// execution) must not move — and the hit shows up in /metrics. The store
// must keep serving after a reopen by a fresh manager.
func TestCacheHitSkipsExecution(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	mgr := New(Config{Workers: 2, QueueDepth: 8, Store: store})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	params := fastParams()
	params.Requests = 5000
	req := JobRequest{Experiment: "fig5", Params: params}

	status, first := postJSON(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("first submit = %d", status)
	}
	env := pollResult(t, ts, first.ID)
	var want sim.Fig5Result
	resultData(t, env, &want)

	snap := mgr.Metrics().Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != 0 {
		t.Fatalf("after first run: misses=%d hits=%d", snap.CacheMisses, snap.CacheHits)
	}
	if snap.WallNs["fig5"].Count != 1 {
		t.Fatalf("executions after first run = %d", snap.WallNs["fig5"].Count)
	}

	// Identical resubmission: born succeeded, served from disk.
	status, second := postJSON(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("second submit = %d", status)
	}
	if second.State != StateSucceeded || !second.Cached {
		t.Fatalf("second submit view = %+v, want cached+succeeded", second)
	}
	// A hit is attributed to the same resolved tenant as the miss.
	if first.Tenant != "default" || second.Tenant != "default" {
		t.Errorf("tenants: miss %q, hit %q, want default for both", first.Tenant, second.Tenant)
	}
	var got sim.Fig5Result
	resultData(t, pollResult(t, ts, second.ID), &got)
	if got.MeanWrite != want.MeanWrite || got.MeanRead != want.MeanRead {
		t.Errorf("cached result drifted:\n got %v %v\nwant %v %v",
			got.MeanWrite, got.MeanRead, want.MeanWrite, want.MeanRead)
	}

	snap = mgr.Metrics().Snapshot()
	if snap.CacheHits != 1 {
		t.Errorf("cache hits = %d", snap.CacheHits)
	}
	if snap.WallNs["fig5"].Count != 1 {
		t.Errorf("zero-invocation violated: executions = %d", snap.WallNs["fig5"].Count)
	}
	if snap.JobsQueued != 1 {
		t.Errorf("cached job entered the queue: queued = %d", snap.JobsQueued)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		"womd_cache_hits_total 1",
		"womd_cache_misses_total 1",
		"womd_store_results 1",
	} {
		if !strings.Contains(string(prom), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	// The /v1/results listing exposes the stored entry.
	resp, err = http.Get(ts.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(listing), `"fig5"`) {
		t.Errorf("results listing missing entry: %s", listing)
	}

	// A fresh manager over a reopened store serves the same result without
	// executing anything — durability across restart.
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	store.Close()
	store2 := openStore(t, dir)
	mgr2 := New(Config{Workers: 2, QueueDepth: 8, Store: store2})
	defer mgr2.Shutdown(context.Background()) //nolint:errcheck
	job, err := mgr2.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != StateSucceeded || !job.View().Cached {
		t.Fatalf("post-restart submit state = %s", job.State())
	}
	if n := mgr2.Metrics().Snapshot().WallNs["fig5"].Count; n != 0 {
		t.Errorf("post-restart executions = %d", n)
	}
}

// TestSingleflightDedup submits three identical jobs while the first still
// runs: one execution, three succeeded jobs (minus the one we cancel).
func TestSingleflightDedup(t *testing.T) {
	store := openStore(t, t.TempDir())
	mgr := New(Config{Workers: 1, QueueDepth: 8, Store: store})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck

	// Slow enough that followers arrive while the leader runs.
	params := sim.Params{Requests: 400000, Bench: []string{"qsort"}, Ranks: 4, Parallelism: 1}
	req := JobRequest{Experiment: "fig5", Params: params}
	leader, err := mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v := follower.View(); v.DedupOf != leader.ID() || v.Tenant != "default" {
		t.Fatalf("follower dedup_of = %q tenant %q, want %q and default", v.DedupOf, v.Tenant, leader.ID())
	}
	// An independently canceled follower must not be resurrected by the
	// leader's success.
	if err := mgr.Cancel(canceled.ID()); err != nil {
		t.Fatal(err)
	}

	waitTerminal(t, mgr, leader.ID())
	waitTerminal(t, mgr, follower.ID())
	waitTerminal(t, mgr, canceled.ID())

	if leader.State() != StateSucceeded || follower.State() != StateSucceeded {
		t.Fatalf("states: leader=%s follower=%s", leader.State(), follower.State())
	}
	if canceled.State() != StateCanceled {
		t.Errorf("canceled follower state = %s", canceled.State())
	}
	lres, _ := leader.Result()
	fres, _ := follower.Result()
	if lres == nil || fres == nil || lres != fres {
		t.Errorf("follower did not share the leader's result")
	}

	snap := mgr.Metrics().Snapshot()
	if snap.JobsDeduped != 2 {
		t.Errorf("deduped = %d, want 2", snap.JobsDeduped)
	}
	if snap.WallNs["fig5"].Count != 1 {
		t.Errorf("executions = %d, want 1 (singleflight)", snap.WallNs["fig5"].Count)
	}
	if snap.JobsCompleted != 2 { // leader + surviving follower
		t.Errorf("completed = %d", snap.JobsCompleted)
	}
	// After the flight settles, a new identical submission is a cache hit,
	// not a new flight.
	hit, err := mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State() != StateSucceeded || !hit.View().Cached {
		t.Errorf("post-flight submit not served from store: %s", hit.State())
	}
}

// TestBaselineAndCompareEndpoints drives pin → compare over HTTP.
func TestBaselineAndCompareEndpoints(t *testing.T) {
	store := openStore(t, t.TempDir())
	mgr := New(Config{Workers: 2, QueueDepth: 8, Store: store})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	params := fastParams()
	params.Requests = 5000
	_, job := postJSON(t, ts, JobRequest{Experiment: "fig6", Params: params})
	pollResult(t, ts, job.ID)

	resp, err := http.Post(ts.URL+"/v1/baselines", "application/json",
		bytes.NewReader([]byte(`{"name":"v1"}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pin status = %d: %s", resp.StatusCode, raw)
	}

	resp, err = http.Get(ts.URL + "/v1/compare?baseline=v1&tolerance=0.01")
	if err != nil {
		t.Fatal(err)
	}
	var cmp resultstore.Comparison
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &cmp); err != nil {
		t.Fatal(err)
	}
	if cmp.Checked != 1 || len(cmp.Regressions) != 0 {
		t.Errorf("compare = %+v", cmp)
	}

	// Unknown baseline → 404; missing param → 400.
	resp, _ = http.Get(ts.URL + "/v1/compare?baseline=nope")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown baseline = %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/compare")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing baseline param = %d", resp.StatusCode)
	}
}

// TestStoreRoutesWithoutStore: result routes on a cache-less manager report
// a structured 501 instead of pretending the cache is empty.
func TestStoreRoutesWithoutStore(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	for _, path := range []string{"/v1/results", "/v1/baselines", "/v1/compare?baseline=x"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(raw), `"error"`) {
			t.Errorf("%s body not structured: %s", path, raw)
		}
	}
}

// TestJSONErrorBodies: every error path — including the mux's own 404/405
// pages — must return {"error": ...} with a JSON Content-Type.
func TestJSONErrorBodies(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	check := func(method, path string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s %s status = %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s %s Content-Type = %q", method, path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
			t.Errorf("%s %s body not structured: %s", method, path, raw)
		}
	}
	check(http.MethodGet, "/nope", http.StatusNotFound)                      // unknown route
	check(http.MethodDelete, "/v1/experiments", http.StatusMethodNotAllowed) // wrong method
	check(http.MethodGet, "/v1/jobs/j-404", http.StatusNotFound)             // handler error path
	check(http.MethodPut, "/v1/jobs", http.StatusMethodNotAllowed)

	// Success paths must pass through untouched.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health Health
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %+v (%v)", resp.StatusCode, health, err)
	}
	if health.GoVersion == "" || health.Revision == "" || health.UptimeSeconds < 0 {
		t.Errorf("healthz missing build/uptime info: %+v", health)
	}
}

// TestJobsDeterministicOrder: listings stay sorted by submission sequence
// even after deletions.
func TestJobsDeterministicOrder(t *testing.T) {
	mgr := New(Config{Workers: 2, QueueDepth: 8})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	params := fastParams()
	params.Requests = 2000
	var ids []string
	for i := 0; i < 4; i++ {
		job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
	}
	for _, id := range ids {
		waitTerminal(t, mgr, id)
	}
	if err := mgr.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	jobs := mgr.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].seq >= jobs[i].seq {
			t.Errorf("listing out of order: %s before %s", jobs[i-1].ID(), jobs[i].ID())
		}
	}
	want := []string{ids[0], ids[2], ids[3]}
	for i, j := range jobs {
		if j.ID() != want[i] {
			t.Errorf("jobs[%d] = %s, want %s", i, j.ID(), want[i])
		}
	}
}
