package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"womcpcm/internal/metrics/metricstest"
	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
	"womcpcm/internal/tsdb"
)

// TestHistoryQueryRangeHTTP drives the full path: self-scrape of the
// server's own exposition into the store, then range queries over HTTP.
func TestHistoryQueryRangeHTTP(t *testing.T) {
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mgr := New(Config{Workers: 1, QueueDepth: 4, History: db})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	start := time.Now().Add(-time.Second)
	for i := 0; i < 3; i++ {
		db.ScrapeOnce(mgr.Collect)
		time.Sleep(5 * time.Millisecond)
	}
	end := time.Now().Add(time.Second)

	url := fmt.Sprintf("%s/v1/query_range?metric=womd_uptime_seconds&start=%d&end=%d&step=1s&agg=max",
		ts.URL, start.Unix(), end.Unix()+1)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query_range = %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	var out struct {
		Series []tsdb.SeriesResult `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 1 || len(out.Series[0].Points) == 0 {
		t.Fatalf("series: %+v", out.Series)
	}

	// Discovery lists the scraped families.
	resp, err = http.Get(ts.URL + "/v1/series?metric=womd_jobs_queued_total")
	if err != nil {
		t.Fatal(err)
	}
	var series struct {
		Series []tsdb.SeriesInfo `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(series.Series) == 0 {
		t.Fatal("womd_jobs_queued_total not discovered")
	}

	// Bad queries are 400s with the structured error shape.
	resp, err = http.Get(ts.URL + "/v1/query_range?metric=womd_up&start=10&end=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range = %d, want 400", resp.StatusCode)
	}
}

// TestAlertHistoryHTTP checks journaled transitions surface over
// /v1/alerts/history.
func TestAlertHistoryHTTP(t *testing.T) {
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.AppendAlertTransition(time.Now(), "firing", "rule\x00subj",
		json.RawMessage(`{"id":"al-000001","rule":"queue-sat","state":"firing"}`))
	mgr := New(Config{Workers: 1, QueueDepth: 1, History: db})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/alerts/history?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alerts/history = %d", resp.StatusCode)
	}
	var out struct {
		Transitions []tsdb.Transition `json:"transitions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Transitions) != 1 || out.Transitions[0].To != "firing" {
		t.Fatalf("transitions: %+v", out.Transitions)
	}
}

// TestJSONEndpointsNoStore spot-checks that the shared respondJSON path
// stamps Cache-Control: no-store on every /v1 JSON surface, success and
// error alike.
func TestJSONEndpointsNoStore(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	for _, path := range []string{
		"/v1/jobs",            // 200 list
		"/v1/jobs/nope",       // 404 error
		"/v1/experiments",     // 200 list
		"/v1/tenants",         // 200 list
		"/v1/alerts",          // 200 list
		"/v1/results",         // 501 plane off
		"/v1/query_range",     // 400 bad query
		"/healthz", "/readyz", // health JSON
		"/v1/definitely/nope", // mux 404 via the JSON interceptor
		"/metrics.json",       // JSON snapshot
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s: Cache-Control = %q, want no-store (status %d)",
				path, cc, resp.StatusCode)
		}
	}
}

// TestHistoryObservesJobWall checks a finished job lands in the history
// store's built-in series.
func TestHistoryObservesJobWall(t *testing.T) {
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mgr := New(Config{Workers: 1, QueueDepth: 4, History: db})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	status, view := postJSON(t, ts, JobRequest{Experiment: "fig5", Params: fastParams()})
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d", status)
	}
	pollResult(t, ts, view.ID)

	infos := db.Series("womd_history_job_wall_seconds")
	if len(infos) != 1 || infos[0].Labels["experiment"] != "fig5" {
		t.Fatalf("job wall series: %+v", infos)
	}
}

// TestOversizedQueryRefusedPromptly: a range query whose grid exceeds
// tsdb.MaxQueryPoints is refused with a 400 before it takes the history
// lock, so a job finishing meanwhile (ObserveJob takes that lock) settles
// at once instead of waiting out a walk of billions of empty windows.
func TestOversizedQueryRefusedPromptly(t *testing.T) {
	release := make(chan struct{})
	mgr := New(Config{Workers: 1, QueueDepth: 4,
		run: func(ctx context.Context, job *Job) (*sim.Result, error) {
			<-release
			return &sim.Result{}, nil
		}})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/query_range?metric=womd_uptime_seconds&start=0&end=%d&step=1ms",
			ts.URL, time.Now().Unix()))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	close(release)
	settled := time.Now().Add(5 * time.Second)
	for !job.State().Terminal() {
		if time.Now().After(settled) {
			t.Fatal("job did not settle within 5 s of an oversized query")
		}
		time.Sleep(time.Millisecond)
	}
	if got := <-status; got != http.StatusBadRequest {
		t.Fatalf("oversized query_range = %d, want 400", got)
	}
}

// TestTenantLabelRoundTrip: a tenant name holding every character the
// exposition format escapes, plus a tab (which Go %q quoting mis-escapes),
// renders valid /metrics, lands in history under its exact name, and
// seeds a restarted scheduler's SLO window through backfillSLO.
func TestTenantLabelRoundTrip(t *testing.T) {
	const tenant = "a\"b\\c\td"
	cfg := sched.Config{Tenants: []sched.TenantClass{{Name: tenant, DeadlineMs: 60_000}}}
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mgr := New(Config{Workers: 1, Scheduler: sched.New(cfg), History: db,
		run: func(ctx context.Context, job *Job) (*sim.Result, error) { return &sim.Result{}, nil }})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	srv := NewServer(mgr)

	// The manager's first self-scrape, before any dequeue, is the
	// counters' zero baseline.
	for waited := time.Now(); len(db.Series("womd_tenant_dequeued_total")) == 0; time.Sleep(time.Millisecond) {
		if time.Since(waited) > 5*time.Second {
			t.Fatal("no self-scrape recorded the tenant")
		}
	}
	for i := 0; i < 2; i++ {
		job, err := mgr.Submit(context.Background(), JobRequest{
			Experiment: "fig5", Params: fastParams(), Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, mgr, job.ID())
	}
	time.Sleep(2 * time.Millisecond) // a distinct scrape timestamp
	db.ScrapeOnce(mgr.Collect)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	_, samples := metricstest.Parse(t, rec.Body.String())
	var exposed int
	for _, s := range samples {
		if s.Name == "womd_tenant_dequeued_total" {
			exposed++
			if s.Labels["tenant"] != tenant || s.Value != 2 {
				t.Errorf("exposed %s %q = %g, want %q = 2", s.Name, s.Labels["tenant"], s.Value, tenant)
			}
		}
	}
	if exposed != 1 {
		t.Fatalf("womd_tenant_dequeued_total exposed %d times, want 1", exposed)
	}

	for _, metric := range []string{"womd_tenant_slo_met_total", "womd_tenant_dequeued_total"} {
		infos := db.Series(metric)
		if len(infos) != 1 || infos[0].Labels["tenant"] != tenant {
			t.Fatalf("history %s series: %+v, want tenant %q", metric, infos, tenant)
		}
	}

	restarted := sched.New(cfg)
	backfillSLO(restarted, db, slog.New(slog.DiscardHandler))
	if met, total, ok := restarted.WindowSLO(tenant, 30*time.Minute); !ok || met != 2 || total != 2 {
		t.Fatalf("backfilled window = %d/%d (known %v), want 2/2", met, total, ok)
	}
}
