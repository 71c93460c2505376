package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
)

// blockingManager builds a manager whose stubbed execution parks every job
// until the returned release func is called (tests fill the queue
// deterministically).
func blockingManager(t *testing.T, cfg Config) (*Manager, func()) {
	t.Helper()
	block := make(chan struct{})
	cfg.run = func(ctx context.Context, job *Job) (*sim.Result, error) {
		select {
		case <-block:
			return &sim.Result{Experiment: job.exp.Name}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	mgr := New(cfg)
	var released bool
	release := func() {
		if !released {
			released = true
			close(block)
		}
	}
	t.Cleanup(func() {
		release()
		mgr.Shutdown(context.Background()) //nolint:errcheck
	})
	return mgr, release
}

// shedBody is the JSON error shape of a shed 429.
type shedBody struct {
	Error       string `json:"error"`
	Reason      string `json:"reason"`
	Tenant      string `json:"tenant"`
	RetryAfterS int64  `json:"retry_after_s"`
}

// TestFIFOQueueFullRetryAfter: without a tenant config, a full-queue 429
// carries a Retry-After header and a machine-readable reason.
func TestFIFOQueueFullRetryAfter(t *testing.T) {
	mgr, _ := blockingManager(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	// One job running (blocked in the hook), one queued; the third rejects.
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
	if ra := last.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var body shedBody
	if err := json.NewDecoder(last.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Reason != "queue_full" || body.RetryAfterS < 1 {
		t.Errorf("shed body = %+v, want reason queue_full and retry_after_s ≥ 1", body)
	}
	if !strings.Contains(body.Error, "queue full") {
		t.Errorf("error message %q lost the queue-full text", body.Error)
	}
}

// TestTenantsRouteUnconfigured: without a tenant config, GET /v1/tenants
// lists the one implicit tenant, "default", bounded at QueueDepth.
func TestTenantsRouteUnconfigured(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 2})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/tenants = %d without a tenant config, want 200", resp.StatusCode)
	}
	var listing struct {
		Tenants []sched.TenantView `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tenants) != 1 || listing.Tenants[0].Name != "default" ||
		listing.Tenants[0].Weight != 1 || listing.Tenants[0].DeadlineMs != 0 {
		t.Fatalf("tenant views = %+v, want the one implicit default tenant", listing.Tenants)
	}
	if depth, capacity := mgr.QueueStats(); depth != 0 || capacity != 2 {
		t.Fatalf("QueueStats = %d/%d, want 0/2", depth, capacity)
	}
}

// TestDefaultQueueFIFO: without a tenant config, one worker starts jobs in
// submission order, and the (QueueDepth+2)-th submission — one running,
// QueueDepth queued — gets a 429 with reason queue_full.
func TestDefaultQueueFIFO(t *testing.T) {
	const depth = 4
	var (
		mu      sync.Mutex
		started []string
	)
	block := make(chan struct{})
	var release sync.Once
	mgr := New(Config{Workers: 1, QueueDepth: depth,
		run: func(ctx context.Context, job *Job) (*sim.Result, error) {
			mu.Lock()
			started = append(started, job.ID())
			mu.Unlock()
			select {
			case <-block:
				return &sim.Result{Experiment: job.exp.Name}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	// Unblock before the deferred Shutdown waits, on failure paths too.
	defer release.Do(func() { close(block) })
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	post := func() (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(JobRequest{Experiment: "fig5", Params: fastParams()})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}
	var ids []string
	for i := 0; i < depth+1; i++ {
		resp, raw := post()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d %s, want 202", i, resp.StatusCode, raw)
		}
		var view JobView
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatal(err)
		}
		if view.Tenant != "default" {
			t.Errorf("submit %d: tenant %q, want default", i, view.Tenant)
		}
		ids = append(ids, view.ID)
		if i == 0 {
			// The first job holds the only worker before the rest queue.
			for mgr.Metrics().Running.Load() != 1 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	resp, raw := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit %d: status %d %s, want 429", depth+2, resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var shed shedBody
	if err := json.Unmarshal(raw, &shed); err != nil {
		t.Fatal(err)
	}
	if shed.Reason != "queue_full" || shed.Tenant != "default" || shed.RetryAfterS < 1 {
		t.Errorf("shed body = %+v, want queue_full of tenant default", shed)
	}

	release.Do(func() { close(block) })
	for _, id := range ids {
		waitTerminal(t, mgr, id)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(started, ids) {
		t.Fatalf("start order %v, want submission order %v", started, ids)
	}
}

// tenantTestConfig is a two-class setup with a small global bound so tests
// reach the shed thresholds quickly: best-effort sheds at depth 2,
// interactive only at the full bound of 4.
func tenantTestConfig() sched.Config {
	return sched.Config{
		Tenants: []TenantClassAlias{
			{Name: "interactive", Weight: 4, Priority: 0, DeadlineMs: 30000},
			{Name: "best-effort", Weight: 1, Priority: 1},
		},
		DefaultTenant: "best-effort",
		MaxDepth:      4,
	}
}

// TenantClassAlias keeps the test readable without the sched import noise.
type TenantClassAlias = sched.TenantClass

// TestTenantQueueEndToEnd drives the tenant scheduler through the full HTTP
// surface: canonical tenant attribution in the JobView, graduated shedding
// with tenant and reason in the 429 body, and live state on /v1/tenants.
func TestTenantQueueEndToEnd(t *testing.T) {
	scheduler := sched.New(tenantTestConfig())
	mgr, release := blockingManager(t, Config{
		Workers:   1,
		Scheduler: scheduler,
	})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	submit := func(tenant string) (*http.Response, JobView) {
		t.Helper()
		body, _ := json.Marshal(JobRequest{Experiment: "fig5", Params: fastParams(), Tenant: tenant})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var view JobView
		json.Unmarshal(raw, &view) //nolint:errcheck // error bodies decode to zero view
		return resp, view
	}

	// Unknown tenant canonicalizes to the default in the JobView.
	resp, view := submit("no-such-tenant")
	if resp.StatusCode != http.StatusAccepted || view.Tenant != "best-effort" {
		t.Fatalf("unknown tenant: status %d tenant %q, want 202/best-effort", resp.StatusCode, view.Tenant)
	}
	// That job is now running (blocked); fill to best-effort's threshold
	// with interactive work, which may not shed yet.
	for i := 0; i < 2; i++ {
		if resp, _ := submit("interactive"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive submit %d: status %d", i, resp.StatusCode)
		}
	}
	// Depth 2 = best-effort's graduated threshold: it sheds with the full
	// detail while interactive is still admitted.
	resp, _ = submit("best-effort")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("best-effort at threshold: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("tenant shed without Retry-After header")
	}
	// Re-read the body via a fresh shed to decode it (the first response
	// body was consumed into the JobView decode above).
	body, _ := json.Marshal(JobRequest{Experiment: "fig5", Params: fastParams(), Tenant: "best-effort"})
	raw, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var shed shedBody
	json.NewDecoder(raw.Body).Decode(&shed) //nolint:errcheck
	raw.Body.Close()
	if shed.Reason != "priority_shed" || shed.Tenant != "best-effort" || shed.RetryAfterS < 1 {
		t.Fatalf("shed body = %+v, want priority_shed of best-effort", shed)
	}
	for i := 0; i < 2; i++ {
		if resp, _ := submit("interactive"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive past best-effort threshold: status %d, want 202", resp.StatusCode)
		}
	}
	// Global bound reached: now even interactive sheds, reason queue_full.
	resp, _ = submit("interactive")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("interactive at full bound: status %d, want 429", resp.StatusCode)
	}

	// /v1/tenants reflects all of it.
	tr, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/tenants = %d, want 200", tr.StatusCode)
	}
	var listing struct {
		Tenants []sched.TenantView `json:"tenants"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tenants) != 2 {
		t.Fatalf("tenant views = %+v, want 2 entries", listing.Tenants)
	}
	byName := map[string]sched.TenantView{}
	for _, v := range listing.Tenants {
		byName[v.Name] = v
	}
	if v := byName["best-effort"]; v.Sheds < 2 || v.ShedReasons["priority_shed"] < 2 {
		t.Errorf("best-effort view = %+v, want ≥2 priority sheds", v)
	}
	if v := byName["interactive"]; v.Sheds < 1 || v.Admits != 4 {
		t.Errorf("interactive view = %+v, want 4 admits and ≥1 shed", v)
	}

	// Unblock and drain: every admitted job completes.
	release()
	for _, j := range mgr.Jobs() {
		if got := waitTerminal(t, mgr, j.ID()).State(); got != StateSucceeded {
			t.Fatalf("job %s = %s after release, want succeeded", j.ID(), got)
		}
	}
}

// TestSubmitRejectsAdmittedAt: a client cannot backdate its own admission.
// A POST /v1/jobs body carrying admitted_at_ms is an unknown field and
// gets a 400; before the field was removed it was accepted, and a job
// backdated by an hour got a deadline an hour old and jumped its tenant's
// earlier jobs in EDF order.
func TestSubmitRejectsAdmittedAt(t *testing.T) {
	s := sched.New(sched.Config{
		MaxDepth: 8,
		Tenants:  []sched.TenantClass{{Name: "interactive", Weight: 1, DeadlineMs: 50}},
	})
	mgr, _ := blockingManager(t, Config{Workers: 1, Scheduler: s})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	backdated := time.Now().Add(-time.Hour).UnixMilli()
	body := fmt.Sprintf(`{"experiment":"fig5","params":{"requests":1000},"tenant":"interactive","admitted_at_ms":%d}`, backdated)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with admitted_at_ms = %d %s, want 400", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "admitted_at_ms") {
		t.Errorf("400 body %s does not name the rejected field", raw)
	}
	if n := len(mgr.Jobs()); n != 0 {
		t.Fatalf("%d jobs admitted, want none", n)
	}
}
