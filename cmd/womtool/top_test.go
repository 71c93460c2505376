package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/health"
	"womcpcm/internal/sched"
)

// fakeOpsServer serves canned /readyz, /v1/tenants, /v1/alerts payloads —
// the ops surface `womtool top` polls.
func fakeOpsServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	write := func(w http.ResponseWriter, status int, body string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(body)) //nolint:errcheck
	}
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		write(w, http.StatusServiceUnavailable,
			`{"ready":false,"reason":"queue saturated (58 of 64)","draining":false,"queue_depth":58,"queue_cap":64}`)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		write(w, http.StatusOK, `{"tenants":[
			{"name":"interactive","depth":7,"inflight":2,"sheds":5,"slo_attainment_1m":0.91,"slo_attainment_5m":0.97,"slo_attainment_30m":0.99},
			{"name":"batch","depth":5,"inflight":2,"sheds":0,"slo_attainment_1m":1,"slo_attainment_5m":1,"slo_attainment_30m":1}]}`)
	})
	mux.HandleFunc("GET /v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		write(w, http.StatusOK, `{
			"alerts":[{"id":"al-000001","rule":"slo-burn-fast","subject":"interactive","severity":"page",
				"state":"firing","value":2.1,"threshold":1.5,"started_at":"2026-08-07T10:00:00Z",
				"annotations":{"exemplar_trace":"4bf92f3577b34da6a3ce929d0e0e4736","exemplar_job":"j-000042"}}],
			"counts":{"firing":1}}`)
	})
	return httptest.NewServer(mux)
}

func TestTopPollAndRender(t *testing.T) {
	ts := fakeOpsServer(t)
	defer ts.Close()

	snap := pollTop(&http.Client{Timeout: 5 * time.Second}, ts.URL)
	if len(snap.Errs) != 0 {
		t.Fatalf("poll errors: %v", snap.Errs)
	}
	var out strings.Builder
	renderTop(&out, snap)
	frame := out.String()
	for _, want := range []string{
		"NOT READY (queue saturated (58 of 64))",
		"queue 58/64",
		"ALERTS  firing 1",
		"FIRING   slo-burn-fast",
		"trace 4bf92f3577b34da6a3ce929d0e0e4736",
		"interactive    depth 7",
		"slo 1m 0.910",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	var page strings.Builder
	renderTopHTML(&page, snap, 2*time.Second)
	if !strings.Contains(page.String(), `http-equiv="refresh" content="2"`) {
		t.Errorf("html frame missing refresh meta:\n%s", page.String())
	}
	if !strings.Contains(page.String(), "slo-burn-fast") {
		t.Error("html frame missing alert content")
	}
}

// TestTopDegradesGracefully: a target that serves only /readyz (every
// other route 404s) still renders a frame instead of erroring out.
func TestTopDegradesGracefully(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ready":true,"draining":false,"queue_depth":0,"queue_cap":64}`)) //nolint:errcheck
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	snap := pollTop(&http.Client{Timeout: 5 * time.Second}, ts.URL)
	if len(snap.Errs) != 0 {
		t.Fatalf("poll errors: %v", snap.Errs)
	}
	if snap.Tenants != nil || snap.Alerts != nil || snap.Sparks != nil {
		t.Fatalf("404 sections should be absent: %+v", snap)
	}
	var out strings.Builder
	renderTop(&out, snap)
	if !strings.Contains(out.String(), "ALERTS  firing 0") {
		t.Errorf("frame missing the alerts header:\n%s", out.String())
	}
}

// Compile-time pin: the dashboard decodes into the server-side view types,
// so a drifting field would fail here rather than silently render zeros.
var (
	_ = sched.TenantView{}
	_ = health.AlertView{}
	_ = engine.Readiness{}
)
