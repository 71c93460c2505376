package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"womcpcm/internal/probe"
	"womcpcm/internal/span"
)

// A fixed upstream trace position: submitting with this traceparent must
// continue the caller's trace instead of starting a fresh one.
const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestJobTraceEndpoint drives a job through the service with an upstream
// traceparent header and checks the trace surface end to end: the
// submission response advertises the continued trace, GET
// /v1/jobs/{id}/trace serves well-formed Chrome trace-event JSON covering
// the lifecycle phases, and the root span parents under the caller's span.
func TestJobTraceEndpoint(t *testing.T) {
	rec := span.New(span.Config{Seed: 7})
	mgr := New(Config{Workers: 2, QueueDepth: 4, Tracer: rec})
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	body, _ := json.Marshal(JobRequest{Experiment: "fig5", Params: fastParams()})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(span.Header, testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}

	// The response names the job's own span inside the caller's trace: same
	// trace id, a fresh span id, sampled flag preserved.
	tc, ok := span.ParseTraceparent(view.Traceparent)
	if !ok {
		t.Fatalf("job view traceparent %q does not parse", view.Traceparent)
	}
	if tc.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("job trace id = %s, want the caller's", tc.TraceID)
	}
	if tc.SpanID == "b7ad6b7169203331" {
		t.Error("job reused the caller's span id instead of starting a child span")
	}
	if !tc.Sampled {
		t.Error("sampled flag not preserved from the caller's traceparent")
	}

	pollResult(t, ts, view.ID)

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traw, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace status = %d: %s", tresp.StatusCode, traw)
	}
	if got := tresp.Header.Get("X-Trace-ID"); got != tc.TraceID {
		t.Errorf("X-Trace-ID = %q, want %q", got, tc.TraceID)
	}
	var ct probe.ChromeTrace
	if err := json.Unmarshal(traw, &ct); err != nil {
		t.Fatalf("trace body is not Chrome trace JSON: %v", err)
	}
	names := make(map[string]int)
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
		}
	}
	for _, want := range []string{"job", "admission", "queue_wait", "execute"} {
		if names[want] == 0 {
			t.Errorf("trace missing a %q span (got %v)", want, names)
		}
	}

	// The root "job" span parents under the caller's span id, so the job
	// nests inside the client's own trace.
	var rootParent string
	for _, s := range rec.Trace(tc.TraceID) {
		if s.Name == "job" {
			rootParent = s.Parent
		}
	}
	if rootParent != "b7ad6b7169203331" {
		t.Errorf("job span parent = %q, want the caller's span id", rootParent)
	}
}

// TestJobTraceUnavailable covers the endpoint's refusal mode: 404 for an
// unknown job id.
func TestJobTraceUnavailable(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 2})
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestShed429CarriesTraceID: a queue-full rejection annotates its shed body
// with the submission's trace id, so a client can hand "my request was
// shed" straight to trace tooling.
func TestShed429CarriesTraceID(t *testing.T) {
	mgr, _ := blockingManager(t, Config{
		Workers: 1, QueueDepth: 1,
		Tracer: span.New(span.Config{Seed: 11}),
	})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	var last *http.Response
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(JobRequest{Experiment: "fig5", Params: fastParams()})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
			}
			continue
		}
		last = resp
	}
	defer last.Body.Close()
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status = %d, want 429", last.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(last.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	tid, _ := body["trace_id"].(string)
	if !hex32.MatchString(tid) {
		t.Errorf("shed body trace_id = %q, want 32 lowercase hex digits (%v)", tid, body)
	}
}
