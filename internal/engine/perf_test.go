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

	"womcpcm/internal/metrics"
	"womcpcm/internal/metrics/metricstest"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/sim"
)

// TestJobPerfRecord runs one job and checks the host-time accounting end to
// end: the JobView perf block, the metrics snapshot, and /metrics families.
func TestJobPerfRecord(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, mgr, job.ID())
	if job.State() != StateSucceeded {
		t.Fatalf("job state = %s", job.State())
	}

	view := job.View()
	if view.Perf == nil {
		t.Fatal("JobView.Perf missing after run")
	}
	p := view.Perf
	if p.WallNs <= 0 || p.SimEvents <= 0 || p.EventsPerSec <= 0 || p.NsPerEvent <= 0 {
		t.Errorf("perf record incomplete: %+v", p.JobRecord)
	}
	if len(p.WriteClasses) == 0 {
		t.Errorf("perf record has no write classes")
	}
	// The perf block must survive JSON round-tripping with snake_case keys.
	raw, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"sim_events"`, `"events_per_sec"`, `"wall_ns"`, `"write_classes"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("serialized JobView missing %s: %s", key, raw)
		}
	}

	snap := mgr.Metrics().Snapshot()
	if snap.SimEventsTotal <= 0 {
		t.Errorf("sim events total = %d", snap.SimEventsTotal)
	}
	if snap.QueueWaitNs.Count != 1 {
		t.Errorf("queue wait count = %d, want 1", snap.QueueWaitNs.Count)
	}
	if h, ok := snap.EventsPerSec["fig5"]; !ok || h.Count != 1 {
		t.Errorf("events/sec histogram = %+v", snap.EventsPerSec)
	}

	var b bytes.Buffer
	metrics.Write(&b, mgr.Metrics().Collect())
	out := b.String()
	for _, want := range []string{
		"womd_job_sim_events_total ",
		`womd_job_events_per_second_count{experiment="fig5"} 1`,
		`womd_job_cpu_seconds_count{experiment="fig5"} 1`,
		`womd_job_alloc_bytes_count{experiment="fig5"} 1`,
		"womd_job_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDisablePerf checks the off switch: no span, no perf block, no perf
// metrics — the disabled path of the zero-cost contract.
func TestDisablePerf(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4, DisablePerf: true})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, mgr, job.ID())
	if view := job.View(); view.Perf != nil {
		t.Errorf("Perf block present with DisablePerf: %+v", view.Perf)
	}
	if snap := mgr.Metrics().Snapshot(); snap.SimEventsTotal != 0 || len(snap.EventsPerSec) != 0 {
		t.Errorf("perf metrics populated with DisablePerf: %+v", snap)
	}
}

// TestSlowVerdicts exercises the profiling policy as a pure function.
func TestSlowVerdicts(t *testing.T) {
	mk := func(id string, rate float64) slowSample {
		return slowSample{id: id, rate: rate, eligible: true}
	}
	cases := []struct {
		name    string
		samples []slowSample
		want    map[string]string
	}{
		{"empty", nil, map[string]string{}},
		{"one job alone", []slowSample{mk("a", 1)}, map[string]string{}},
		{"slow outlier", []slowSample{mk("a", 1000), mk("b", 1100), mk("c", 10)},
			map[string]string{"c": "slow"}},
		{"uniform jobs clean", []slowSample{mk("a", 1000), mk("b", 1100), mk("c", 900)},
			map[string]string{}},
		{"ineligible first pass", []slowSample{
			{id: "a", rate: 0, eligible: false}, mk("b", 1000), mk("c", 1100)},
			map[string]string{}},
		{"deadline", []slowSample{
			{id: "a", elapsed: 95 * time.Second, timeout: 100 * time.Second, eligible: true, rate: 500},
			mk("b", 500)},
			map[string]string{"a": "deadline"}},
		{"deadline outranks slow", []slowSample{
			{id: "a", elapsed: 95 * time.Second, timeout: 100 * time.Second, eligible: true, rate: 1},
			mk("b", 1000), mk("c", 1100)},
			map[string]string{"a": "deadline"}},
		{"unbounded job no deadline", []slowSample{
			{id: "a", elapsed: time.Hour, timeout: 0, eligible: true, rate: 1000},
			mk("b", 1100)},
			map[string]string{}},
	}
	for _, tc := range cases {
		got := slowVerdicts(tc.samples, 0.25, 0.9)
		if len(got) != len(tc.want) {
			t.Errorf("%s: verdicts = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for id, reason := range tc.want {
			if got[id] != reason {
				t.Errorf("%s: verdict[%s] = %q, want %q", tc.name, id, got[id], reason)
			}
		}
	}
}

// TestMonitorCapturesDeadlineProfile drives the automatic profiler end to
// end: a job near its deadline gets CPU+heap profiles captured into the
// store, the counter moves, and the HTTP routes list and serve the files.
func TestMonitorCapturesDeadlineProfile(t *testing.T) {
	ps, err := perfmon.NewProfileStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(Config{
		Workers:            1,
		QueueDepth:         4,
		Profiles:           ps,
		MonitorInterval:    10 * time.Millisecond,
		DeadlineFraction:   0.0001, // any elapsed time crosses it
		ProfileCPUDuration: 10 * time.Millisecond,
	})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// A long single-threaded job with a generous timeout: the deadline
	// trigger fires long before the timeout does.
	params := sim.Params{Requests: 400000, Bench: []string{"qsort"}, Ranks: 4, Parallelism: 1}
	job, err := mgr.Submit(context.Background(),
		JobRequest{Experiment: "fig5", Params: params, TimeoutMs: 120000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for ps.Len() < 2 && !job.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("no profiles captured; store holds %d", ps.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
	caps := ps.List(job.ID())
	if len(caps) < 2 {
		t.Fatalf("captures for %s = %d, want cpu+heap", job.ID(), len(caps))
	}
	if got := mgr.Metrics().ProfilesCaptured.Load(); got < 2 {
		t.Errorf("profiles captured counter = %d", got)
	}

	// The listing route serves the captures...
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Job      string            `json:"job"`
		Profiles []perfmon.Capture `json:"profiles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Job != job.ID() || len(listing.Profiles) < 2 {
		t.Fatalf("profile listing = %+v", listing)
	}
	// ...and the fetch route serves a pprof body.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/profiles/" + listing.Profiles[0].File)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("profile fetch: status %d, %d bytes", resp.StatusCode, len(body))
	}
	// Unknown file names 404 instead of escaping the store directory.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/profiles/passwd")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown profile status = %d", resp.StatusCode)
	}

	if err := mgr.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, mgr, job.ID())
}

// TestProfileRoutesUnconfigured maps the no-store case to 501.
func TestProfileRoutesUnconfigured(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/j-000001/profiles")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("profiles without store status = %d, want 501", resp.StatusCode)
	}
}

// TestRuntimeMetricsExposition wires a poller into the server and holds the
// scrape to the strict exposition contract: every womd_runtime_* family from
// RuntimeMetricNames appears with a TYPE line and at least one sample, and
// the whole body still parses strictly.
func TestRuntimeMetricsExposition(t *testing.T) {
	poller := perfmon.NewPoller(50 * time.Millisecond)
	poller.Start()
	defer poller.Stop()
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	srv := NewServer(mgr, WithCollector(poller.Collect))

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	types, samples := metricstest.Parse(t, rec.Body.String())
	counts := make(map[string]int)
	for _, s := range samples {
		counts[metricstest.BaseName(s.Name)]++
		counts[s.Name]++
	}
	for _, fam := range perfmon.RuntimeMetricNames() {
		if _, ok := types[fam]; !ok {
			t.Errorf("family %s has no TYPE line", fam)
		}
		if counts[fam] == 0 {
			t.Errorf("family %s has no samples", fam)
		}
	}
	// Summaries carry quantile labels.
	var quantiles int
	for _, s := range samples {
		if s.Name == "womd_runtime_gc_pause_seconds" && s.Labels["quantile"] != "" {
			quantiles++
		}
	}
	if quantiles != 3 {
		t.Errorf("gc pause quantile samples = %d, want 3", quantiles)
	}
}
