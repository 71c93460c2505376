package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/metrics/metricstest"
	"womcpcm/internal/probe"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// TestClusterMergedTrace is the distributed-tracing e2e: a job submitted to
// the coordinator executes on a worker, and the coordinator's trace buffer
// ends up holding one stitched trace — coordinator lifecycle spans, the
// dispatch span, and the worker's own lifecycle spans shipped back over the
// done frame (or the /cluster/v1/spans fallback) — served as Chrome trace
// JSON from GET /v1/jobs/{id}/trace.
func TestClusterMergedTrace(t *testing.T) {
	tc := newTestCluster(t, Config{}, engine.Config{})
	tc.addWorker("alpha")
	tc.addWorker("beta")

	job, err := tc.mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "fig5",
		Params:     sim.Params{Requests: 400, Bench: []string{"qsort"}, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, engine.StateSucceeded, 60*time.Second)
	tid := job.TraceContext().TraceID
	if len(tid) != 32 {
		t.Fatalf("job trace id = %q, want 32 hex digits", tid)
	}

	// Worker spans arrive asynchronously (done frame, then the POST
	// fallback after the stream closes) — poll until the worker's root
	// "job" span lands in the coordinator's buffer.
	var spans []span.Span
	var workerJob *span.Span
	deadline := time.Now().Add(30 * time.Second)
	for workerJob == nil {
		if time.Now().After(deadline) {
			t.Fatalf("worker spans never reached the coordinator; have %v", spanNames(spans))
		}
		spans = tc.coord.tracer.Trace(tid)
		for i := range spans {
			if spans[i].Name == "job" && spans[i].Service != "coordinator" {
				workerJob = &spans[i]
				break
			}
		}
		if workerJob == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// One trace, both processes, the full lifecycle vocabulary.
	services := make(map[string]bool)
	for _, s := range spans {
		if s.TraceID != tid {
			t.Fatalf("span %s/%s leaked into trace %s", s.Service, s.Name, tid)
		}
		services[s.Service] = true
	}
	if len(services) < 2 || !services["coordinator"] {
		t.Errorf("merged trace spans services %v, want coordinator + a worker", services)
	}
	names := spanNames(spans)
	for _, want := range []string{"job", "admission", "queue_wait", "dispatch", "execute"} {
		if !names[want] {
			t.Errorf("merged trace missing a %q span (got %v)", want, names)
		}
	}

	// The stitch point: the worker's root span parents under the
	// coordinator's dispatch span, so the waterfall nests correctly.
	var dispatch *span.Span
	for i := range spans {
		if spans[i].Name == "dispatch" && spans[i].Service == "coordinator" {
			dispatch = &spans[i]
		}
	}
	if dispatch == nil {
		t.Fatal("no dispatch span in the merged trace")
	}
	if workerJob.Parent != dispatch.SpanID {
		t.Errorf("worker job span parent = %q, want dispatch span %q",
			workerJob.Parent, dispatch.SpanID)
	}
	if workerJob.Service == dispatch.Service {
		t.Errorf("worker job span recorded by %q, want a worker service", workerJob.Service)
	}

	// The HTTP surface serves the same merged trace as Chrome trace JSON.
	resp, err := http.Get(tc.ts.URL + "/v1/jobs/" + job.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != tid {
		t.Errorf("X-Trace-ID = %q, want %q", got, tid)
	}
	var ct probe.ChromeTrace
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("trace body is not Chrome trace JSON: %v", err)
	}
	slices, procs := 0, 0
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Ph == "X":
			slices++
		case ev.Ph == "M" && ev.Name == "process_name":
			procs++
		}
	}
	if slices < len(spans) {
		t.Errorf("Chrome trace has %d slices for %d buffered spans", slices, len(spans))
	}
	if procs < 2 {
		t.Errorf("Chrome trace names %d processes, want coordinator + worker", procs)
	}
}

func spanNames(spans []span.Span) map[string]bool {
	names := make(map[string]bool)
	for _, s := range spans {
		names[s.Name] = true
	}
	return names
}

// TestClusterFederatedMetrics checks fleet federation end to end: after a
// job completes on a worker, a federation pass re-exposes the worker's
// womd_* families on the coordinator's /metrics as womd_fleet_* with
// instance labels — in strictly valid exposition format — and GET /v1/fleet
// summarizes the same fleet.
func TestClusterFederatedMetrics(t *testing.T) {
	tc := newTestCluster(t, Config{}, engine.Config{})
	tc.addWorker("alpha")
	tc.addWorker("beta")

	job, err := tc.mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "fig5",
		Params:     sim.Params{Requests: 400, Bench: []string{"qsort"}, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, engine.StateSucceeded, 60*time.Second)

	tc.coord.FederateOnce(context.Background())
	prom := httpGetBody(t, tc.ts.URL+"/metrics")
	types, samples := metricstest.Parse(t, prom)

	// Every declared family must be backed by samples (the strict
	// exposition rule federation must preserve while merging).
	backed := make(map[string]bool)
	for _, s := range samples {
		backed[metricstest.BaseName(s.Name)] = true
		backed[s.Name] = true
	}
	for name, typ := range types {
		if !backed[name] {
			t.Errorf("# TYPE %s %s has no samples", name, typ)
		}
	}

	// Both workers were scraped; their engine counters appear under the
	// fleet namespace with instance labels, and the completed-jobs total
	// across instances counts our one job.
	instances := map[string]bool{}
	var completed float64
	for _, s := range samples {
		if s.Name == "womd_fleet_instances" && s.Value != 2 {
			t.Errorf("womd_fleet_instances = %g, want 2", s.Value)
		}
		if !strings.HasPrefix(s.Name, "womd_fleet_") || !strings.HasPrefix(metricstest.BaseName(s.Name), "womd_fleet_") {
			continue
		}
		switch s.Name {
		case "womd_fleet_instances", "womd_fleet_scrape_errors_total", "womd_fleet_scrape_age_seconds":
			continue // federation meta-metrics carry no instance label
		}
		inst := s.Labels["instance"]
		if !regexp.MustCompile(`^w-\d{3}$`).MatchString(inst) {
			t.Fatalf("federated sample %s labels %v: missing worker instance", s.Name, s.Labels)
		}
		instances[inst] = true
		if s.Name == "womd_fleet_jobs_completed_total" {
			completed += s.Value
		}
	}
	if len(instances) != 2 {
		t.Errorf("federated samples cover instances %v, want 2 workers", instances)
	}
	if completed != 1 {
		t.Errorf("sum of womd_fleet_jobs_completed_total = %g, want 1:\n%s",
			completed, grepLines(prom, "womd_fleet_jobs_completed_total"))
	}
	if typ := types["womd_fleet_jobs_completed_total"]; typ != "counter" {
		t.Errorf("womd_fleet_jobs_completed_total TYPE = %q, want counter", typ)
	}
	// The span-buffer health families federate too — fleet-wide tracing
	// observability from one scrape.
	if !backed["womd_fleet_spans_recorded_total"] {
		t.Error("worker span-recorder metrics not federated")
	}

	// The JSON summary agrees: two workers, our job counted, a fresh pass.
	// Completed totals ride on heartbeats, so give them a beat to land.
	var fleet FleetView
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := httpGetBody(t, tc.ts.URL+"/v1/fleet")
		if err := json.Unmarshal([]byte(body), &fleet); err != nil {
			t.Fatalf("GET /v1/fleet: %v: %s", err, body)
		}
		if fleet.Totals.Completed >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fleet.Totals.Workers != 2 || len(fleet.Workers) != 2 {
		t.Errorf("fleet view totals %+v (%d workers), want 2", fleet.Totals, len(fleet.Workers))
	}
	if fleet.Totals.Completed != 1 {
		t.Errorf("fleet totals completed = %d, want 1", fleet.Totals.Completed)
	}
	if fleet.Federation.Instances != 2 {
		t.Errorf("fleet federation instances = %d, want 2", fleet.Federation.Instances)
	}
	if fleet.Federation.LastScrapeAgeMs < 0 {
		t.Error("fleet federation reports no completed scrape pass")
	}
	for _, w := range fleet.Workers {
		if w.ID == "" || w.Name == "" || w.Addr == "" || w.Capacity != 2 {
			t.Errorf("fleet worker view incomplete: %+v", w)
		}
	}
}
