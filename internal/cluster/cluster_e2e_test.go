package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
	"womcpcm/internal/trace"
)

// syncBuffer is a goroutine-safe log sink for asserting on slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// testCluster is an in-process coordinator: engine manager with the
// dispatch hook, the public API, and the cluster RPC surface on one
// listener.
type testCluster struct {
	t     *testing.T
	coord *Coordinator
	mgr   *engine.Manager
	ts    *httptest.Server
	logs  *syncBuffer
}

func newTestCluster(t *testing.T, ccfg Config, ecfg engine.Config) *testCluster {
	t.Helper()
	logs := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, nil))
	if ccfg.Logger == nil {
		ccfg.Logger = logger
	}
	if ccfg.Heartbeat == 0 {
		ccfg.Heartbeat = 100 * time.Millisecond
	}
	if ccfg.EvictAfter == 0 {
		ccfg.EvictAfter = 600 * time.Millisecond
	}
	// Tracing mirrors womd's coordinator wiring: one recorder shared by the
	// public engine (root job spans) and the coordinator (dispatch spans,
	// ingest of worker spans). Fixed seed for reproducible ids.
	if ccfg.Tracer == nil {
		ccfg.Tracer = span.New(span.Config{Service: "coordinator", Seed: 42})
	}
	if ecfg.Tracer == nil {
		ecfg.Tracer = ccfg.Tracer
	}
	coord := NewCoordinator(ccfg)
	if ecfg.Workers == 0 {
		ecfg.Workers = 4
	}
	if ecfg.QueueDepth == 0 {
		ecfg.QueueDepth = 16
	}
	if ecfg.Logger == nil {
		ecfg.Logger = logger
	}
	ecfg.Execute = coord.Execute
	mgr := engine.New(ecfg)
	coord.AttachManager(mgr)
	coord.Start()
	mux := http.NewServeMux()
	mux.Handle("/cluster/v1/", coord.Handler())
	mux.HandleFunc("GET /v1/fleet", coord.HandleFleet)
	mux.Handle("/", engine.NewServer(mgr, engine.WithCollector(coord.Collect)))
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		coord.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx) //nolint:errcheck
	})
	return &testCluster{t: t, coord: coord, mgr: mgr, ts: ts, logs: logs}
}

// testWorker is one in-process fleet member: its own engine and the agent
// RPC surface on its own listener.
type testWorker struct {
	agent *Agent
	mgr   *engine.Manager
	ts    *httptest.Server
}

// addWorker spins up a worker, joins it to the fleet, and waits for the
// registration to land.
func (tc *testCluster) addWorker(name string) *testWorker {
	tc.t.Helper()
	// Each worker gets its own recorder, seeded from its name so two
	// workers never issue colliding span ids (same seed ⇒ same id
	// sequence, and Ingest dedups by id).
	wrec := span.New(span.Config{Service: name, Seed: fnvSeed(name)})
	mgr := engine.New(engine.Config{Workers: 2, QueueDepth: 16, Tracer: wrec})
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	agent := NewAgent(AgentConfig{
		Coordinator: tc.ts.URL,
		Advertise:   ts.URL,
		Name:        name,
		Capacity:    2,
		Heartbeat:   100 * time.Millisecond,
		Tracer:      wrec,
	}, mgr)
	mux.Handle("/cluster/v1/", agent.Handler())
	// The worker's own engine API — federation scrapes its /metrics.
	mux.Handle("/", engine.NewServer(mgr, engine.WithCollector(wrec.Collect)))
	before := tc.coord.liveWorkers()
	if err := agent.Start(); err != nil {
		ts.Close()
		tc.t.Fatalf("worker %s registration: %v", name, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.coord.liveWorkers() <= before {
		if time.Now().After(deadline) {
			tc.t.Fatalf("worker %s never joined the fleet", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w := &testWorker{agent: agent, mgr: mgr, ts: ts}
	tc.t.Cleanup(func() { w.kill() })
	return w
}

// kill simulates sudden worker death: listener closed mid-stream, running
// jobs aborted, heartbeats stopped. Idempotent.
func (w *testWorker) kill() {
	if w.ts == nil {
		return
	}
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.ts = nil
	w.agent.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()            // expired context aborts running jobs immediately
	w.mgr.Shutdown(ctx) //nolint:errcheck
}

// putTrace stores records in the coordinator's trace store, returning the
// trace id replay submissions reference.
func (tc *testCluster) putTrace(label string, recs []trace.Record) string {
	tc.t.Helper()
	var buf bytes.Buffer
	bw := trace.NewBinWriter(&buf)
	for _, r := range recs {
		bw.Write(r)
	}
	if err := bw.Flush(); err != nil {
		tc.t.Fatal(err)
	}
	st, err := tc.mgr.Traces().Put(label, &buf, int64(buf.Len()))
	if err != nil {
		tc.t.Fatal(err)
	}
	return st.ID
}

// replayTrace builds a synthetic trace long enough to stay in flight while
// tests poke at the job.
func replayTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		op := trace.Write
		if i%3 == 0 {
			op = trace.Read
		}
		recs[i] = trace.Record{Op: op, Addr: uint64(i%512) * 16384, Time: int64(i) * 60}
	}
	return recs
}

type sseEvent struct {
	name string
	data string
}

// readSSE parses frames until the limit, the body ends, or stop returns
// true for a parsed frame.
func readSSE(t *testing.T, body *bufio.Reader, limit int, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for len(events) < limit {
		line, err := body.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			if stop != nil && stop(cur) {
				return events
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestClusterDispatchAndSSE is the happy-path e2e on one worker: a replay
// job submitted to the coordinator executes on the worker, its telemetry
// and progress stream back through the coordinator's SSE endpoint — across
// a mid-job client reconnect — and the job view names the worker.
func TestClusterDispatchAndSSE(t *testing.T) {
	tc := newTestCluster(t, Config{}, engine.Config{})
	w := tc.addWorker("alpha")

	tid := tc.putTrace("e2e", replayTrace(300000))
	job, err := tc.mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "replay",
		Params:     sim.Params{Ranks: 2, Banks: 4, Parallelism: 1},
		TraceID:    tid,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First SSE connection: read a handful of live events, then hang up
	// mid-job.
	resp, err := http.Get(tc.ts.URL + "/v1/jobs/" + job.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	first := readSSE(t, bufio.NewReader(resp.Body), 3, func(ev sseEvent) bool { return ev.name == "done" })
	resp.Body.Close()
	if len(first) == 0 {
		t.Fatal("no SSE events before reconnect")
	}
	sawDone := first[len(first)-1].name == "done"

	// Reconnect: the stream resumes (or reports the terminal state) and
	// must end with exactly one done event.
	resp, err = http.Get(tc.ts.URL + "/v1/jobs/" + job.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	second := readSSE(t, bufio.NewReader(resp.Body), 100000, func(ev sseEvent) bool { return ev.name == "done" })
	if len(second) == 0 || second[len(second)-1].name != "done" {
		t.Fatalf("reconnected stream did not end in done (%d events)", len(second))
	}
	var windows, progress int
	for _, ev := range append(first, second...) {
		switch ev.name {
		case "window":
			windows++
		case "progress":
			progress++
		}
	}
	if !sawDone && windows == 0 {
		t.Error("no telemetry window events reached the SSE client")
	}
	if progress == 0 {
		t.Error("no progress events reached the SSE client")
	}

	waitState(t, job, engine.StateSucceeded, 60*time.Second)
	view := job.View()
	if view.Worker == "" {
		t.Error("job view missing the worker it executed on")
	}
	if view.Perf == nil {
		t.Error("job view missing the worker-measured perf record")
	}
	res, err := job.Result()
	if err != nil || res == nil {
		t.Fatalf("result = %v, %v", res, err)
	}
	// The run truly happened on the worker: its engine completed one job,
	// the coordinator's pool ran nothing locally.
	if got := w.mgr.Metrics().Completed.Load(); got != 1 {
		t.Errorf("worker completed %d jobs, want 1", got)
	}
	prom := httpGetBody(t, tc.ts.URL+"/metrics")
	if !strings.Contains(prom, `womd_cluster_dispatch_total{worker="w-001",outcome="ok"} 1`) {
		t.Errorf("coordinator /metrics missing dispatch counter:\n%s", grepLines(prom, "womd_cluster"))
	}
}

// TestClusterRoutingDeterminism checks identical submissions land on the
// same worker via the consistent-hash ring, and that concurrent identical
// submissions fold into one remote execution (singleflight).
func TestClusterRoutingDeterminism(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tc := newTestCluster(t, Config{}, engine.Config{Store: store})
	w1 := tc.addWorker("alpha")
	w2 := tc.addWorker("beta")

	params := sim.Params{Requests: 400, Bench: []string{"qsort"}, Parallelism: 1}
	req := engine.JobRequest{Experiment: "fig5", Params: params}

	// Two concurrent identical submissions: singleflight makes one remote
	// execution; the follower settles with the leader's outcome.
	leader, err := tc.mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := tc.mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if follower.View().DedupOf != leader.ID() {
		t.Fatalf("follower dedup_of = %q, want %q", follower.View().DedupOf, leader.ID())
	}
	waitState(t, leader, engine.StateSucceeded, 60*time.Second)
	waitState(t, follower, engine.StateSucceeded, 60*time.Second)
	if n := len(w1.mgr.Jobs()) + len(w2.mgr.Jobs()); n != 1 {
		t.Errorf("fleet executed %d jobs for 2 identical submissions, want 1", n)
	}
	firstWorker := leader.View().Worker
	if firstWorker == "" {
		t.Fatal("leader executed locally, want remote dispatch")
	}
	if owner := tc.coord.Owner(tc.coord.routingKey(leader)); owner != firstWorker {
		t.Errorf("ring owner = %q, executed on %q", owner, firstWorker)
	}

	// A later identical submission is a cache hit — served from the store,
	// never dispatched.
	cached, err := tc.mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v := cached.View(); !v.Cached || v.State != engine.StateSucceeded {
		t.Errorf("repeat submission = %+v, want cached success", v)
	}

	// Distinct params still route deterministically: same worker on every
	// resubmission of the same key.
	params2 := sim.Params{Requests: 401, Bench: []string{"qsort"}, Parallelism: 1}
	var workers []string
	for i := 0; i < 2; i++ {
		j, err := tc.mgr.Submit(context.Background(), engine.JobRequest{Experiment: "fig5", Params: params2})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, engine.StateSucceeded, 60*time.Second)
		v := j.View()
		if i == 0 && v.Cached {
			t.Fatal("first params2 submission unexpectedly cached")
		}
		if !v.Cached {
			workers = append(workers, v.Worker)
		}
	}
	for _, w := range workers {
		if w != workers[0] {
			t.Errorf("identical submissions executed on %v, want one worker", workers)
		}
	}
}

// TestClusterCancelPropagation is the cancel-over-RPC contract: canceling
// (or timing out) a dispatched job on the coordinator stops the run on the
// worker too.
func TestClusterCancelPropagation(t *testing.T) {
	tc := newTestCluster(t, Config{}, engine.Config{})
	// Store the trace before the worker joins: generating millions of records
	// on a small box starves a live worker's heartbeat goroutine long enough
	// to trip eviction.
	tid := tc.putTrace("cancel", replayTrace(3000000))
	w := tc.addWorker("alpha")
	job, err := tc.mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "replay",
		Params:     sim.Params{Ranks: 2, Banks: 4, Parallelism: 1},
		TraceID:    tid,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is genuinely running on the worker.
	waitState(t, job, engine.StateRunning, 30*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for len(w.mgr.Jobs()) == 0 || w.mgr.Jobs()[0].State() == engine.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started on the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := tc.mgr.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, job, engine.StateCanceled, 30*time.Second)
	// The worker-side run must stop as well — cancel crossed the RPC.
	wjob := w.mgr.Jobs()[0]
	deadline = time.Now().Add(30 * time.Second)
	for !wjob.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("worker job still %s after coordinator cancel", wjob.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := wjob.State(); s != engine.StateCanceled {
		t.Errorf("worker job = %s after coordinator cancel, want canceled", s)
	}

	// Timeout variant: the coordinator-side deadline propagates the same
	// way and reports the usual timed-out failure.
	timed, err := tc.mgr.Submit(context.Background(), engine.JobRequest{
		Experiment: "replay",
		Params:     sim.Params{Ranks: 2, Banks: 4, Parallelism: 1},
		TraceID:    tid,
		// Well under the replay's runtime even on a fast machine — at
		// 300ms the 3M-record replay occasionally finished first.
		TimeoutMs: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, timed, engine.StateFailed, 30*time.Second)
	if _, err := timed.Result(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("timed-out job error = %v, want timeout", err)
	}
}

// TestClusterWorkerDeathRequeue kills a worker mid-job and checks the
// acceptance contract: the job requeues to the survivor and completes, the
// queue-wait histogram counts it once, and the requeue log line keeps the
// original request id.
func TestClusterWorkerDeathRequeue(t *testing.T) {
	tc := newTestCluster(t, Config{}, engine.Config{})
	w1 := tc.addWorker("alpha")
	w2 := tc.addWorker("beta")

	tid := tc.putTrace("death", replayTrace(400000))
	ctx := engine.WithRequestID(context.Background(), "req-death-1")
	job, err := tc.mgr.Submit(ctx, engine.JobRequest{
		Experiment: "replay",
		Params:     sim.Params{Ranks: 2, Banks: 4, Parallelism: 1},
		TraceID:    tid,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Find which worker got the job, then kill that worker mid-run.
	var victim, survivor *testWorker
	var victimID string
	deadline := time.Now().Add(30 * time.Second)
	for victim == nil {
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched")
		}
		switch {
		case len(w1.mgr.Jobs()) > 0 && w1.mgr.Jobs()[0].State() == engine.StateRunning:
			victim, survivor, victimID = w1, w2, w1.agent.ID()
		case len(w2.mgr.Jobs()) > 0 && w2.mgr.Jobs()[0].State() == engine.StateRunning:
			victim, survivor, victimID = w2, w1, w2.agent.ID()
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	victim.kill()

	waitState(t, job, engine.StateSucceeded, 120*time.Second)
	view := job.View()
	if view.Worker == "" || view.Worker == victimID {
		t.Errorf("job finished on %q, want the survivor (victim %q)", view.Worker, victimID)
	}
	if got := survivor.mgr.Metrics().Completed.Load(); got != 1 {
		t.Errorf("survivor completed %d jobs, want 1", got)
	}
	if got := tc.coord.metrics.Requeues.Load(); got == 0 {
		t.Error("requeue counter not incremented")
	}
	// Satellite contract: the requeue does not re-enter the admission
	// queue, so queue wait is observed exactly once for this job.
	if got := tc.mgr.Metrics().QueueWaitSnapshot().Count; got != 1 {
		t.Errorf("queue-wait observations = %d, want 1", got)
	}
	// And the requeue log line still carries the submitting request id.
	logs := tc.logs.String()
	found := false
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "job requeued") && strings.Contains(line, "request_id=req-death-1") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no requeue log line with the original request id:\n%s", grepLines(logs, "requeue"))
	}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fnvSeed derives a per-worker recorder seed from the worker's name.
func fnvSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name)) //nolint:errcheck // fnv never errors
	s := h.Sum64()
	if s == 0 {
		s = 1
	}
	return s
}

// grepLines filters s to lines containing substr, for focused failure
// output.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
