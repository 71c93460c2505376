package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/metrics"
	"womcpcm/internal/sim"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// fastParams keeps service tests quick: one benchmark, a short trace, a
// reduced rank count.
func fastParams() sim.Params {
	return sim.Params{
		Requests: 20000,
		Seed:     7,
		Bench:    []string{"qsort"},
		Ranks:    4,
	}
}

// postJSON submits a job request and decodes the response body.
func postJSON(t *testing.T, ts *httptest.Server, req JobRequest) (int, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	raw, _ := io.ReadAll(resp.Body)
	json.Unmarshal(raw, &view) //nolint:errcheck // error bodies decode to zero view
	return resp.StatusCode, view
}

// pollResult polls /v1/jobs/{id}/result until 200 or the deadline.
func pollResult(t *testing.T, ts *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var out map[string]json.RawMessage
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("decoding result: %v", err)
			}
			return out
		case http.StatusAccepted:
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("job %s: unexpected status %d: %s", id, resp.StatusCode, raw)
		}
	}
	t.Fatalf("job %s: no result before deadline", id)
	return nil
}

// resultData extracts result.data from a polled result envelope.
func resultData(t *testing.T, env map[string]json.RawMessage, into any) {
	t.Helper()
	var res struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(env["result"], &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(res.Data, into); err != nil {
		t.Fatal(err)
	}
}

// TestServiceEndToEnd is the acceptance test: start the server, POST a fig5
// job and a custom workload-sweep job, poll both to completion, check the
// results against the equivalent direct internal/sim calls, and check that
// /metrics reflects the runs.
func TestServiceEndToEnd(t *testing.T) {
	mgr := New(Config{Workers: 2, QueueDepth: 8})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// A fig5 job over the paper benchmark filter.
	status, fig5Job := postJSON(t, ts, JobRequest{Experiment: "fig5", Params: fastParams()})
	if status != http.StatusAccepted {
		t.Fatalf("fig5 submit status = %d", status)
	}
	if fig5Job.State != StateQueued && fig5Job.State != StateRunning {
		t.Fatalf("fig5 submit state = %s", fig5Job.State)
	}

	// A custom workload sweep: qsort's profile under a new name.
	custom, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	custom.Name = "custom-qsort"
	sweepParams := fastParams()
	sweepParams.Bench = nil
	sweepParams.Profile = &custom
	status, sweepJob := postJSON(t, ts, JobRequest{Experiment: "sweep", Params: sweepParams})
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit status = %d", status)
	}

	// Poll both to completion and compare with direct sim calls.
	var got sim.Fig5Result
	resultData(t, pollResult(t, ts, fig5Job.ID), &got)
	cfg, err := fastParams().Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("fig5 rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	if got.MeanWrite != want.MeanWrite || got.MeanRead != want.MeanRead {
		t.Errorf("fig5 means drifted from direct call:\n got %v %v\nwant %v %v",
			got.MeanWrite, got.MeanRead, want.MeanWrite, want.MeanRead)
	}

	var sweepGot sim.Fig5Result
	resultData(t, pollResult(t, ts, sweepJob.ID), &sweepGot)
	if len(sweepGot.Rows) != 1 || sweepGot.Rows[0].Benchmark != "custom-qsort" {
		t.Fatalf("sweep rows = %+v", sweepGot.Rows)
	}
	// The sweep renamed qsort, so its numbers must differ only by the
	// name-derived generator seed — both runs must at least agree that
	// every architecture beats baseline.
	for a := 1; a < 4; a++ {
		if sweepGot.Rows[0].Write[a] >= 1 {
			t.Errorf("sweep arch %d write %.3f not below baseline", a, sweepGot.Rows[0].Write[a])
		}
	}

	// Metrics must reflect the two completed jobs.
	snap := mgr.Metrics().Snapshot()
	if snap.JobsQueued != 2 || snap.JobsCompleted != 2 || snap.JobsFailed != 0 {
		t.Errorf("metrics = %+v", snap)
	}
	if snap.QueueDepth != 0 || snap.JobsRunning != 0 {
		t.Errorf("gauges not drained: %+v", snap)
	}
	if w, ok := snap.WallNs["fig5"]; !ok || w.Count != 1 {
		t.Errorf("fig5 wall histogram = %+v", snap.WallNs)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"womd_jobs_completed_total 2",
		"womd_queue_depth 0",
		`womd_job_wall_seconds_count{experiment="fig5"} 1`,
		`womd_job_wall_seconds_count{experiment="sweep"} 1`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The experiments listing serves the registry.
	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(listing), `"fig5"`) || !strings.Contains(string(listing), `"sweep"`) {
		t.Errorf("experiment listing incomplete: %s", listing)
	}
}

// TestTraceUploadAndReplay uploads a binary trace and replays it.
func TestTraceUploadAndReplay(t *testing.T) {
	mgr := New(Config{Workers: 2, QueueDepth: 8})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	var buf bytes.Buffer
	w := trace.NewBinWriter(&buf)
	for i := 0; i < 5000; i++ {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		w.Write(trace.Record{Op: op, Addr: uint64(i%64) * 16384, Time: int64(i) * 60})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/traces?label=synthetic", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var st StoredTrace
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != 5000 || st.Label != "synthetic" {
		t.Fatalf("stored trace = %+v", st)
	}

	params := sim.Params{Ranks: 4}
	status, job := postJSON(t, ts, JobRequest{Experiment: "replay", Params: params, TraceID: st.ID})
	if status != http.StatusAccepted {
		t.Fatalf("replay submit status = %d", status)
	}
	var got sim.ReplayResult
	resultData(t, pollResult(t, ts, job.ID), &got)
	if got.Records != 5000 || len(got.Runs) != 4 {
		t.Fatalf("replay result: records=%d runs=%d", got.Records, len(got.Runs))
	}
	if got.NormWrite[0] != 1 {
		t.Errorf("baseline not normalized: %v", got.NormWrite)
	}

	// A replay job without a trace reference is rejected at admission.
	status, _ = postJSON(t, ts, JobRequest{Experiment: "replay", Params: params})
	if status != http.StatusBadRequest {
		t.Errorf("trace-less replay status = %d", status)
	}
	// An unknown trace id is a 404.
	status, _ = postJSON(t, ts, JobRequest{Experiment: "replay", Params: params, TraceID: "t-999999"})
	if status != http.StatusNotFound {
		t.Errorf("unknown trace status = %d", status)
	}

	// A malformed upload errors instead of panicking or storing garbage.
	resp, err = http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		strings.NewReader("WOMT\x01\x00\x00\x00garbage-that-is-not-a-record"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed upload status = %d", resp.StatusCode)
	}
}

// TestTraceUploadPresized checks both upload framings end to end: a binary
// body with a Content-Length is stored in one slice of exactly its record
// count, and the same body sent chunked (length unknown) stores the same
// records.
func TestTraceUploadPresized(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	const n = 3000
	var buf bytes.Buffer
	w := trace.NewBinWriter(&buf)
	for i := 0; i < n; i++ {
		w.Write(trace.Record{Op: trace.Op(i % 2), Addr: uint64(i) * 64, Time: int64(i) * 50})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	upload := func(body io.Reader) *StoredTrace {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StoredTrace
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload status %d (decode err %v)", resp.StatusCode, err)
		}
		stored, ok := mgr.Traces().Get(st.ID)
		if !ok {
			t.Fatalf("trace %s not stored", st.ID)
		}
		return stored
	}
	sized := upload(bytes.NewReader(buf.Bytes()))
	if recs := sized.Records(); len(recs) != n || cap(recs) != n {
		t.Errorf("sized upload: len %d cap %d, want both %d", len(recs), cap(recs), n)
	}
	// io.MultiReader hides the length, so the client sends it chunked.
	chunked := upload(io.MultiReader(bytes.NewReader(buf.Bytes())))
	if !reflect.DeepEqual(chunked.Records(), sized.Records()) {
		t.Errorf("chunked upload stored %d records, sized %d", chunked.Count, sized.Count)
	}
}

// TestAdmissionControl fills the queue behind a single busy worker and
// checks the 429 + metrics path, then cancellation of a queued job.
func TestAdmissionControl(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// A slow job to occupy the single worker: one long single-threaded sim.
	slow := sim.Params{Requests: 400000, Bench: []string{"qsort"}, Ranks: 4, Parallelism: 1}
	status, running := postJSON(t, ts, JobRequest{Experiment: "fig5", Params: slow})
	if status != http.StatusAccepted {
		t.Fatalf("first submit = %d", status)
	}
	status, queued := postJSON(t, ts, JobRequest{Experiment: "fig6", Params: slow})
	if status != http.StatusAccepted {
		t.Fatalf("second submit = %d", status)
	}
	// Worker busy on job 1, queue holds job 2 → job 3 must bounce.
	status, _ = postJSON(t, ts, JobRequest{Experiment: "fig7", Params: slow})
	if status != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", status)
	}
	if got := mgr.Metrics().Rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d", got)
	}

	// Cancel the queued job: it must reach canceled without running.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}

	// Cancel the running job too, then wait for both to settle.
	if err := mgr.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j1, _ := mgr.Get(running.ID)
		j2, _ := mgr.Get(queued.ID)
		if j1.State().Terminal() && j2.State().Terminal() {
			if j2.State() != StateCanceled {
				t.Errorf("queued job state = %s, want canceled", j2.State())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not settle: %s / %s", j1.State(), j2.State())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGracefulDrain submits jobs and shuts down immediately: every accepted
// job must still complete, and later submissions must be refused.
func TestGracefulDrain(t *testing.T) {
	mgr := New(Config{Workers: 2, QueueDepth: 8})
	params := fastParams()
	params.Requests = 5000
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		j, ok := mgr.Get(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if j.State() != StateSucceeded {
			t.Errorf("job %s state = %s after drain", id, j.State())
		}
		if res, err := j.Result(); err != nil || res == nil {
			t.Errorf("job %s result missing: %v", id, err)
		}
	}
	if _, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: params}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
	if got := mgr.Metrics().Snapshot(); got.JobsCompleted != 3 {
		t.Errorf("completed = %d", got.JobsCompleted)
	}
	// A second Shutdown is a no-op.
	if err := mgr.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestJobTimeout bounds a job with a 1 ms budget: it must fail cleanly.
func TestJobTimeout(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	params := fastParams()
	params.Requests = 100000
	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: params, TimeoutMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !job.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout job stuck in %s", job.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State() != StateFailed {
		t.Fatalf("state = %s, want failed", job.State())
	}
	if _, err := job.Result(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("timeout error = %v", err)
	}
	if got := mgr.Metrics().Failed.Load(); got != 1 {
		t.Errorf("failed counter = %d", got)
	}
}

// TestSubmitValidation rejects bad requests at admission time.
func TestSubmitValidation(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	cases := []JobRequest{
		{Experiment: "nope"},
		{Experiment: "fig5", Params: sim.Params{Bench: []string{"not-a-benchmark"}}},
		{Experiment: "fig5", Params: sim.Params{Suite: "not-a-suite"}},
		{Experiment: "sweep"}, // missing profile
	}
	for _, req := range cases {
		if _, err := mgr.Submit(context.Background(), req); err == nil {
			t.Errorf("Submit(%+v) accepted", req)
		}
	}
	if got := mgr.Metrics().Queued.Load(); got != 0 {
		t.Errorf("queued counter = %d after rejects", got)
	}
}

// TestDeleteLifecycle covers delete of finished jobs and the not-found path.
func TestDeleteLifecycle(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	params := fastParams()
	params.Requests = 2000
	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !job.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := mgr.Delete(job.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.Get(job.ID()); ok {
		t.Error("job still present after delete")
	}
	if err := mgr.Delete(job.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if err := mgr.Cancel("j-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v", err)
	}
}

// TestMetricsProm sanity-checks the exposition format shape.
func TestMetricsProm(t *testing.T) {
	m := NewMetrics()
	m.Queued.Add(3)
	m.ObserveWall("fig5", 1500*time.Millisecond)
	m.ObserveWall("fig5", 2*time.Millisecond)
	var b bytes.Buffer
	metrics.Write(&b, m.Collect())
	out := b.String()
	for _, want := range []string{
		"# TYPE womd_jobs_queued_total counter",
		"womd_jobs_queued_total 3",
		"# TYPE womd_job_wall_seconds histogram",
		`womd_job_wall_seconds_bucket{experiment="fig5",le="+Inf"} 2`,
		`womd_job_wall_seconds_count{experiment="fig5"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
	snap := m.WallSnapshot()["fig5"]
	if snap.Count != 2 || snap.MaxNs < int64(time.Second) {
		t.Errorf("wall snapshot = %+v", snap)
	}
	if len(snap.Buckets) == 0 || snap.Buckets[len(snap.Buckets)-1].Count != 2 {
		t.Errorf("cumulative buckets wrong: %+v", snap.Buckets)
	}
}

// TestStoreBounds covers the upload caps.
func TestStoreBounds(t *testing.T) {
	s := NewTraceStore(10, 1)
	var buf bytes.Buffer
	w := trace.NewBinWriter(&buf)
	for i := 0; i < 20; i++ {
		w.Write(trace.Record{Op: trace.Read, Addr: uint64(i), Time: int64(i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("big", bytes.NewReader(buf.Bytes()), int64(buf.Len())); !errors.Is(err, trace.ErrTooLong) {
		t.Errorf("oversized upload = %v", err)
	}
	small := "R 0x40 100\nW 0x80 160\n"
	if _, err := s.Put("a", strings.NewReader(small), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", strings.NewReader(small), -1); !errors.Is(err, ErrStoreFull) {
		t.Errorf("store overflow = %v", err)
	}
	if _, err := s.Put("empty", strings.NewReader("# nothing\n"), -1); err == nil {
		t.Error("empty upload accepted")
	}
	if _, err := s.Put("unordered", strings.NewReader("R 0x40 100\nR 0x80 50\n"), -1); err == nil {
		t.Error("time-unordered upload accepted")
	}
	if got := len(s.List()); got != 1 {
		t.Errorf("stored traces = %d", got)
	}
}

func ExampleNewServer() {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	resp, _ := http.Get(ts.URL + "/healthz")
	var h Health
	json.NewDecoder(resp.Body).Decode(&h) //nolint:errcheck
	resp.Body.Close()
	fmt.Println(h.Status, h.GoVersion == runtime.Version())
	// Output: ok true
}
