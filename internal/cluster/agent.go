package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// AgentConfig wires one worker into a coordinator's fleet.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL (scheme://host:port).
	Coordinator string
	// Advertise is this worker's own base URL, reachable from the
	// coordinator.
	Advertise string
	// Name labels the worker in the coordinator's fleet view (default:
	// Advertise).
	Name string
	// Capacity reports the worker's engine pool size to the coordinator.
	Capacity int
	// Heartbeat is the report interval until the coordinator assigns one at
	// registration (default 5s).
	Heartbeat time.Duration
	// Client performs coordinator RPCs (default http.DefaultClient).
	Client *http.Client
	// Logger receives registration/heartbeat logs; nil discards them.
	Logger *slog.Logger
	// Tracer is the worker engine's span recorder. Dispatched jobs' spans
	// are read from it and shipped back to the coordinator (on the done
	// frame and via POST /cluster/v1/spans). Nil disables shipping.
	Tracer *span.Recorder
}

// Agent is the worker side of the cluster: it registers with the
// coordinator, heartbeats load reports, and serves the dispatch RPC surface
// (Handler) backed by the worker's own engine.Manager.
type Agent struct {
	cfg    AgentConfig
	mgr    *engine.Manager
	log    *slog.Logger
	client *http.Client

	id        atomic.Value // string; "" until registered
	draining  atomic.Bool
	heartbeat atomic.Int64 // interval in ns, updated from RegisterResponse

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu       sync.Mutex
	traceIDs map[string]string // coordinator trace id → local trace id
}

// NewAgent builds a worker agent over mgr. Call Start to join the fleet,
// mount Handler on the worker's HTTP server, and BeginDrain + Stop on
// shutdown.
func NewAgent(cfg AgentConfig, mgr *engine.Manager) *Agent {
	if cfg.Name == "" {
		cfg.Name = cfg.Advertise
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	a := &Agent{
		cfg:      cfg,
		mgr:      mgr,
		log:      cfg.Logger,
		client:   cfg.Client,
		stopCh:   make(chan struct{}),
		traceIDs: make(map[string]string),
	}
	a.id.Store("")
	a.heartbeat.Store(int64(cfg.Heartbeat))
	return a
}

// ID returns the coordinator-assigned worker id ("" before registration).
func (a *Agent) ID() string { return a.id.Load().(string) }

// Start registers with the coordinator and launches the heartbeat loop. A
// failed initial registration is returned but not fatal: the loop keeps
// retrying, so a worker started before its coordinator joins once it
// appears.
func (a *Agent) Start() error {
	err := a.register()
	a.wg.Add(1)
	go a.heartbeatLoop()
	return err
}

// Stop halts the heartbeat loop.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stopCh) })
	a.wg.Wait()
}

// BeginDrain refuses new dispatches and tells the coordinator to stop
// routing here and steal back whatever is still queued. Call it before
// shutting the engine down; running jobs finish streaming meanwhile.
func (a *Agent) BeginDrain() {
	a.draining.Store(true)
	if id := a.ID(); id != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		err := postJSON(ctx, a.client, a.cfg.Coordinator+"/cluster/v1/drain",
			DrainRequest{ID: id}, nil)
		if err != nil {
			a.log.Warn("drain announcement failed", "error", err.Error())
		}
	}
}

func (a *Agent) register() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp RegisterResponse
	err := postJSON(ctx, a.client, a.cfg.Coordinator+"/cluster/v1/register", RegisterRequest{
		Name:        a.cfg.Name,
		Addr:        a.cfg.Advertise,
		Capacity:    a.cfg.Capacity,
		Fingerprint: sim.RegistryFingerprint(),
	}, &resp)
	if err != nil {
		return fmt.Errorf("cluster: registering with %s: %w", a.cfg.Coordinator, err)
	}
	a.id.Store(resp.ID)
	if resp.HeartbeatMs > 0 {
		a.heartbeat.Store(int64(time.Duration(resp.HeartbeatMs) * time.Millisecond))
	}
	a.log.Info("registered with coordinator", "coordinator", a.cfg.Coordinator,
		"worker", resp.ID, "heartbeat_ms", resp.HeartbeatMs)
	return nil
}

// heartbeatLoop reports load until stopped, re-registering whenever the
// coordinator stops recognizing this worker (eviction, restart).
func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	for {
		interval := time.Duration(a.heartbeat.Load())
		select {
		case <-a.stopCh:
			return
		case <-time.After(interval):
		}
		if a.ID() == "" {
			if err := a.register(); err != nil {
				a.log.Warn("registration retry failed", "error", err.Error())
			}
			continue
		}
		m := a.mgr.Metrics()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := postJSON(ctx, a.client, a.cfg.Coordinator+"/cluster/v1/heartbeat", HeartbeatRequest{
			ID:         a.ID(),
			QueueDepth: m.QueueDepth.Load(),
			Running:    m.Running.Load(),
			Completed:  m.Completed.Load(),
			Failed:     m.Failed.Load(),
			SimEvents:  m.SimEvents.Load(),
			Draining:   a.draining.Load(),
			// Readiness rides every heartbeat so a saturated worker is routed
			// around within one interval and re-admitted as soon as it drains
			// below the threshold — no extra RPC, no separate probe loop.
			NotReady: !a.mgr.Readiness(0).Ready,
		}, nil)
		cancel()
		var re *rpcError
		switch {
		case err == nil:
		case errors.As(err, &re) && re.Status == http.StatusNotFound:
			// Evicted (or the coordinator restarted): rejoin under a new id.
			a.log.Warn("coordinator no longer knows this worker; re-registering")
			a.id.Store("")
			if err := a.register(); err != nil {
				a.log.Warn("re-registration failed", "error", err.Error())
			}
		default:
			a.log.Warn("heartbeat failed", "error", err.Error())
		}
	}
}

// Handler mounts the worker's /cluster/v1/ RPC surface.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/jobs", a.handleDispatch)
	mux.HandleFunc("POST /cluster/v1/jobs/{id}/cancel", a.handleCancel)
	mux.HandleFunc("GET /cluster/v1/jobs/{id}/events", a.handleEvents)
	return mux
}

func (a *Agent) handleDispatch(w http.ResponseWriter, r *http.Request) {
	if a.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: worker draining"))
		return
	}
	var spec DispatchRequest
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cluster: decoding dispatch: %w", err))
		return
	}
	// The request id arrives in the body and as X-Request-ID; body wins
	// (it is the coordinator's canonical copy), the header covers callers
	// that only speak HTTP conventions.
	if spec.RequestID == "" {
		spec.RequestID = r.Header.Get("X-Request-ID")
	}
	req := engine.JobRequest{
		Experiment:   spec.Experiment,
		Params:       spec.Params,
		TimeoutMs:    spec.TimeoutMs,
		Tenant:       spec.Tenant,
		AdmittedAtMs: spec.AdmittedAtMs,
	}
	if spec.TraceID != "" {
		localID, err := a.resolveTrace(r.Context(), spec.TraceID, spec.TraceLabel)
		if err != nil {
			httpError(w, http.StatusBadGateway,
				fmt.Errorf("cluster: fetching trace %s: %w", spec.TraceID, err))
			return
		}
		req.TraceID = localID
	}
	// The coordinator's request id rides into this worker's lifecycle logs,
	// so one submission is traceable across dispatch and requeue hops; the
	// traceparent (header first, body as the proxy-proof copy) parents this
	// worker's "job" span under the coordinator's dispatch span.
	ctx := engine.WithRequestID(context.Background(), spec.RequestID)
	tc, traced := span.FromRequest(r)
	if !traced {
		tc, traced = span.ParseTraceparent(spec.Traceparent)
	}
	if traced {
		ctx = engine.WithTraceParent(ctx, tc)
	}
	job, err := a.mgr.Submit(ctx, req)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, engine.ErrQueueFull), errors.Is(err, engine.ErrTooManyJobs):
			status = http.StatusTooManyRequests
		case errors.Is(err, engine.ErrDraining):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	a.log.Info("job accepted from coordinator", "job", job.ID(),
		"coordinator_job", spec.JobID, "request_id", spec.RequestID,
		"experiment", spec.Experiment)
	if jtc := job.TraceContext(); a.cfg.Tracer != nil && jtc.Sampled {
		a.wg.Add(1)
		go a.shipSpans(job)
	}
	writeJSON(w, http.StatusOK, DispatchResponse{WorkerJobID: job.ID()})
}

// shipSpans waits for a dispatched job to settle, then pushes its recorded
// spans to the coordinator — the fallback delivery path for runs whose
// event stream broke before the done frame (which also carries the spans)
// could land. The coordinator's ingest dedups by (trace id, span id), so
// the usual double delivery is harmless.
func (a *Agent) shipSpans(job *engine.Job) {
	defer a.wg.Done()
	sub, cancel := job.SubscribeStream()
	defer cancel()
	for {
		select {
		case <-a.stopCh:
			return
		case _, open := <-sub:
			if open {
				continue // live event; only the close matters here
			}
		}
		break
	}
	spans := a.cfg.Tracer.Trace(job.TraceContext().TraceID)
	if len(spans) == 0 {
		return
	}
	ctx, cancelPost := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelPost()
	err := postJSON(ctx, a.client, a.cfg.Coordinator+"/cluster/v1/spans",
		SpanPush{WorkerID: a.ID(), Spans: spans}, nil)
	if err != nil {
		a.log.Warn("span shipping failed", "job", job.ID(), "error", err.Error())
	}
}

// resolveTrace maps a coordinator trace id onto this worker's trace store,
// downloading the binary trace once and serving repeats from the local
// store.
func (a *Agent) resolveTrace(ctx context.Context, coordID, label string) (string, error) {
	a.mu.Lock()
	if localID, ok := a.traceIDs[coordID]; ok {
		if _, still := a.mgr.Traces().Get(localID); still {
			a.mu.Unlock()
			return localID, nil
		}
		delete(a.traceIDs, coordID) // evicted locally; re-download
	}
	a.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, "GET",
		a.cfg.Coordinator+"/cluster/v1/traces/"+coordID, nil)
	if err != nil {
		return "", err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if label == "" {
		label = coordID
	}
	st, err := a.mgr.Traces().Put(label, resp.Body, resp.ContentLength)
	if err != nil {
		return "", err
	}
	a.mu.Lock()
	a.traceIDs[coordID] = st.ID
	a.mu.Unlock()
	return st.ID, nil
}

func (a *Agent) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.mgr.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown job %q", id))
		return
	}
	if r.URL.Query().Get("reason") == "steal" {
		// A steal must not kill a job that already started — only cancel
		// while it still sits in the local queue, and tell the coordinator
		// which way it went.
		stolen := job.CancelIfQueued()
		writeJSON(w, http.StatusOK, CancelResponse{Stolen: stolen, State: job.State()})
		return
	}
	a.mgr.Cancel(id) //nolint:errcheck // job exists; terminal cancel is a no-op
	writeJSON(w, http.StatusOK, CancelResponse{State: job.State()})
}

// handleEvents streams one job's lifecycle as NDJSON frames: "started" when
// the job leaves the local queue, every hub event ("progress", "window")
// as it happens, and a terminal "done" frame carrying outcome, result, and
// the worker-measured perf record. The stream ends after done; a
// coordinator reattaching to a finished job gets the done frame
// immediately.
func (a *Agent) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.mgr.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("cluster: unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	send := func(f Frame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	sendDone := func() {
		view := job.View()
		res, jobErr := job.Result()
		d := DoneFrame{State: view.State, Error: view.Error, Result: res, Perf: view.Perf}
		if jobErr != nil && d.Error == "" {
			d.Error = jobErr.Error()
		}
		if tc := job.TraceContext(); tc.Sampled {
			d.Spans = a.cfg.Tracer.Trace(tc.TraceID)
		}
		data, err := json.Marshal(d)
		if err != nil {
			return
		}
		send(Frame{Event: "done", Data: data})
	}

	sub, cancelSub := job.SubscribeStream()
	defer cancelSub()
	started := job.Started()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-started:
			if !send(Frame{Event: "started"}) {
				return
			}
			started = nil // fire once
		case ev, open := <-sub:
			if !open {
				sendDone()
				return
			}
			if !send(Frame{Event: ev.Name, Data: ev.Data}) {
				return
			}
		}
	}
}
