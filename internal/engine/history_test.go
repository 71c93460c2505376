package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"womcpcm/internal/tsdb"
)

// TestHistoryRoutesRefuseWhenOff pins the 501 contract: without
// WithHistory the history surface answers ErrNoHistory, like the other
// optional planes.
func TestHistoryRoutesRefuseWhenOff(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	for _, path := range []string{
		"/v1/query_range?metric=womd_up&start=0&end=1",
		"/v1/series",
		"/v1/alerts/history",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: non-JSON 501 body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("%s = %d, want 501", path, resp.StatusCode)
		}
		if body["error"] == "" {
			t.Fatalf("%s: empty error body", path)
		}
	}
}

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
	srv := NewServer(mgr, WithHistory(db))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now().Add(-time.Second)
	for i := 0; i < 3; i++ {
		db.ScrapeOnce(srv.Collect)
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
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr, WithHistory(db)))
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
		"/v1/alerts",          // 501 plane off
		"/v1/results",         // 501 plane off
		"/v1/query_range",     // 501 plane off
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

// TestObserveHistoryDisabledZeroAlloc pins the acceptance contract:
// -history=false adds zero allocations to the job hot path — the
// ObserveJob hook is one nil pointer check.
func TestObserveHistoryDisabledZeroAlloc(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	allocs := testing.AllocsPerRun(1000, func() {
		mgr.cfg.History.ObserveJob("conf_date", 0.123)
	})
	if allocs != 0 {
		t.Fatalf("disabled ObserveJob allocates %g/op, want 0", allocs)
	}
}

// BenchmarkObserveHistoryDisabled is the benchmark twin of the zero-alloc
// test, for `go test -bench` comparisons against the enabled path.
func BenchmarkObserveHistoryDisabled(b *testing.B) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mgr.cfg.History.ObserveJob("conf_date", 0.123)
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
	ts := httptest.NewServer(NewServer(mgr, WithHistory(db)))
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
