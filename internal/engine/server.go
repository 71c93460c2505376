package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"womcpcm/internal/health"
	"womcpcm/internal/metrics"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// Server is the HTTP/JSON face of a Manager. Routes (see DESIGN.md for the
// full catalog):
//
//	POST   /v1/jobs             submit an experiment job (202, 429 when full)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result of a succeeded job (202 while pending)
//	GET    /v1/jobs/{id}/progress records processed / total (replay jobs)
//	GET    /v1/jobs/{id}/stream   live SSE: telemetry windows + progress
//	GET    /v1/jobs/{id}/trace    job trace, Chrome trace-event JSON
//	GET    /v1/jobs/{id}/profiles        pprof captures for a slow job
//	GET    /v1/jobs/{id}/profiles/{file} one capture, pprof binary body
//	DELETE /v1/jobs/{id}        cancel a pending job / delete a finished one
//	POST   /v1/traces           upload a trace (binary or text body)
//	GET    /v1/traces           list uploads
//	DELETE /v1/traces/{id}      drop an upload
//	GET    /v1/experiments      list the experiment registry
//	GET    /v1/tenants          per-tenant scheduler state
//	GET    /v1/results          list cached results (when a store is wired)
//	GET    /v1/results/{key}    one cached result, full body
//	POST   /v1/baselines        pin a named baseline snapshot {"name": "..."}
//	GET    /v1/baselines        list pinned baselines
//	GET    /v1/baselines/{name} one baseline, full metrics
//	GET    /v1/compare          ?baseline=name&tolerance=0.02 regression report
//	GET    /v1/alerts           SLO/burn-rate alerts
//	GET    /v1/alerts/history   journaled alert transitions, newest first
//	GET    /v1/alerts/{id}      one alert, active or recently resolved
//	GET    /v1/query_range      metric history range query
//	GET    /v1/series           metric history discovery
//	GET    /metrics             Prometheus text format
//	GET    /metrics.json        JSON metrics snapshot
//	GET    /healthz             liveness probe
//	GET    /readyz              readiness: 503 while draining or saturated
type Server struct {
	m     *Manager
	mux   *http.ServeMux
	log   *slog.Logger
	debug bool
}

// sseHeartbeat spaces the comment frames that keep idle SSE streams from
// being reaped by proxies and let the server notice dead clients.
const sseHeartbeat = 15 * time.Second

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithLogger routes structured access logs (one line per request, carrying
// the request id) to l. The default discards them.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithDebug mounts net/http/pprof under /debug/pprof/. Off by default: the
// profiling endpoints expose internals and cost CPU, so womd gates them
// behind its -debug flag.
func WithDebug() ServerOption {
	return func(s *Server) { s.debug = true }
}

// NewServer wires the routes over m.
func NewServer(m *Manager, opts ...ServerOption) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), log: slog.New(slog.DiscardHandler)}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.listJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.getResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.getProgress)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.streamJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.getJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profiles", s.listProfiles)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profiles/{file}", s.getProfile)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.deleteJob)
	s.mux.HandleFunc("POST /v1/traces", s.uploadTrace)
	s.mux.HandleFunc("GET /v1/traces", s.listTraces)
	s.mux.HandleFunc("DELETE /v1/traces/{id}", s.deleteTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.listExperiments)
	s.mux.HandleFunc("GET /v1/tenants", s.listTenants)
	s.mux.HandleFunc("GET /v1/results", s.listResults)
	s.mux.HandleFunc("GET /v1/results/{key}", s.getStoredResult)
	s.mux.HandleFunc("POST /v1/baselines", s.pinBaseline)
	s.mux.HandleFunc("GET /v1/baselines", s.listBaselines)
	s.mux.HandleFunc("GET /v1/baselines/{name}", s.getBaseline)
	s.mux.HandleFunc("GET /v1/compare", s.compareBaseline)
	s.mux.HandleFunc("GET /v1/alerts", s.listAlerts)
	s.mux.HandleFunc("GET /v1/alerts/history", s.alertHistory)
	s.mux.HandleFunc("GET /v1/alerts/{id}", s.getAlert)
	s.mux.HandleFunc("GET /v1/query_range", s.queryRange)
	s.mux.HandleFunc("GET /v1/series", s.listSeries)
	s.mux.HandleFunc("GET /metrics", s.promMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.jsonMetrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	if s.debug {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler. Each request is stamped with a request
// id (honoring a client-supplied X-Request-ID) that handlers propagate into
// job lifecycle logs, and responses pass through an interceptor that
// rewrites any plain-text error — notably the mux's own 404/405 pages —
// into the service's structured JSON error shape, so every error path on
// this API returns {"error": "..."} with a JSON Content-Type.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	ctx := WithRequestID(r.Context(), id)
	// A W3C traceparent header joins this request to the caller's trace:
	// Submit parents the job's root span under it instead of starting a
	// fresh trace.
	if tc, ok := span.FromRequest(r); ok {
		ctx = WithTraceParent(ctx, tc)
	}
	r = r.WithContext(ctx)

	start := time.Now()
	iw := &jsonErrorWriter{ResponseWriter: w}
	s.mux.ServeHTTP(iw, r)
	iw.finish()
	s.log.Info("request", "request_id", id, "method", r.Method,
		"path", r.URL.Path, "status", iw.statusCode(),
		"duration_ms", time.Since(start).Milliseconds())
}

// jsonErrorWriter wraps a ResponseWriter and converts non-JSON error
// responses (status ≥ 400 without a JSON Content-Type, e.g. from
// http.Error) into JSON bodies. Success responses pass through untouched.
type jsonErrorWriter struct {
	http.ResponseWriter
	wroteHeader bool
	capturing   bool
	status      int
	buf         bytes.Buffer
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if w.wroteHeader || w.capturing {
		return
	}
	ct := w.Header().Get("Content-Type")
	if status >= 400 && !strings.Contains(ct, "json") {
		// Hold the header back: the body is rewritten in finish.
		w.capturing = true
		w.status = status
		return
	}
	w.wroteHeader = true
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// statusCode reports the response status for access logging; implicit
// 200-on-first-Write responses read as 200.
func (w *jsonErrorWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if w.capturing {
		return w.buf.Write(b)
	}
	if !w.wroteHeader {
		w.wroteHeader = true
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so the
// SSE handler can flush through the interceptor.
func (w *jsonErrorWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// finish emits a captured error as the structured JSON shape.
func (w *jsonErrorWriter) finish() {
	if !w.capturing {
		return
	}
	msg := strings.TrimSpace(w.buf.String())
	if msg == "" {
		msg = http.StatusText(w.status)
	}
	writeJSON(w.ResponseWriter, w.status, map[string]string{"error": msg})
}

// writeJSON emits v with the given status. Every JSON response on this
// API is live operational state — never cacheable — so the no-store
// directive rides the shared helper instead of per-handler discipline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-response
}

// writeError maps engine errors onto HTTP statuses. Shed submissions
// (queue full, tenant shed) additionally carry a Retry-After header
// computed from the observed drain rate and machine-readable reason and
// tenant fields, so clients back off proportionally to the real backlog.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrTooManyJobs), errors.Is(err, ErrStoreFull):
		status = http.StatusInsufficientStorage
	case errors.Is(err, ErrNotFound), errors.Is(err, resultstore.ErrNoBaseline):
		status = http.StatusNotFound
	case errors.Is(err, ErrNoStore), errors.Is(err, ErrNoProfiles):
		status = http.StatusNotImplemented
	}
	var se *sched.ShedError
	if errors.As(err, &se) {
		secs := int64(math.Ceil(se.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		body := map[string]any{
			"error":         err.Error(),
			"reason":        se.Reason,
			"retry_after_s": secs,
		}
		if se.Tenant != "" {
			body["tenant"] = se.Tenant
		}
		if se.TraceID != "" {
			body["trace_id"] = se.TraceID
		}
		writeJSON(w, status, body)
		return
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// ErrNoStore rejects result-store routes when womd runs without -cache.
var ErrNoStore = errors.New("engine: result store not configured (start womd with -cache)")

const maxJobBody = 1 << 20 // job submissions are small JSON documents

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("engine: decoding job request: %w", err))
		return
	}
	job, err := s.m.Submit(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) listJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.m.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) getResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, r.PathValue("id")))
		return
	}
	view := job.View()
	switch view.State {
	case StateSucceeded:
		res, _ := job.Result()
		writeJSON(w, http.StatusOK, map[string]any{"job": view, "result": res})
	case StateQueued, StateRunning:
		// Not ready yet: 202 tells pollers to come back.
		writeJSON(w, http.StatusAccepted, view)
	default:
		writeJSON(w, http.StatusConflict, view)
	}
}

// getJobTrace serves GET /v1/jobs/{id}/trace: the job's trace as Chrome
// trace-event JSON, directly loadable in Perfetto and rendered to an HTML
// waterfall by `womtool spans`. 404 for a job whose trace was sampled out
// (or predates the span buffer's eviction horizon).
func (s *Server) getJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, r.PathValue("id")))
		return
	}
	tc := job.TraceContext()
	spans := s.m.Tracer().Trace(tc.TraceID)
	if len(spans) == 0 {
		writeError(w, fmt.Errorf("%w: trace %s has no buffered spans (sampled out or evicted)",
			ErrNotFound, tc.TraceID))
		return
	}
	w.Header().Set("X-Trace-ID", tc.TraceID)
	writeJSON(w, http.StatusOK, span.ChromeTraceOf(spans))
}

// getProgress reports a job's completion gauge. The fraction is monotone
// non-decreasing across polls of a running job (see Job.setProgress).
func (s *Server) getProgress(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Progress())
}

// ErrNoProfiles rejects profile routes when womd runs without -profile-dir.
var ErrNoProfiles = errors.New("engine: slow-job profiling not configured (start womd with -profile-dir)")

// requireProfiles resolves the profile store or reports ErrNoProfiles.
func (s *Server) requireProfiles(w http.ResponseWriter) *perfmon.ProfileStore {
	ps := s.m.Profiles()
	if ps == nil {
		writeError(w, ErrNoProfiles)
		return nil
	}
	return ps
}

// listProfiles serves GET /v1/jobs/{id}/profiles: every pprof capture the
// slow-job monitor took for this job, newest first.
func (s *Server) listProfiles(w http.ResponseWriter, r *http.Request) {
	ps := s.requireProfiles(w)
	if ps == nil {
		return
	}
	id := r.PathValue("id")
	if _, ok := s.m.Get(id); !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, id))
		return
	}
	caps := ps.List(id)
	perfmon.SortCapturesByTime(caps)
	writeJSON(w, http.StatusOK, map[string]any{"job": id, "profiles": caps})
}

// getProfile serves one capture's pprof body; the file name comes from the
// listing and only store-registered names resolve (no path traversal).
func (s *Server) getProfile(w http.ResponseWriter, r *http.Request) {
	ps := s.requireProfiles(w)
	if ps == nil {
		return
	}
	id, file := r.PathValue("id"), r.PathValue("file")
	if _, ok := s.m.Get(id); !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, id))
		return
	}
	f, err := ps.Open(file)
	if err != nil {
		writeError(w, fmt.Errorf("%w: profile %q", ErrNotFound, file))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", file))
	io.Copy(w, f) //nolint:errcheck // client gone mid-download
}

// deleteJob cancels a pending job; a terminal job is removed instead.
func (s *Server) deleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.m.Get(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, id))
		return
	}
	if job.State().Terminal() {
		if err := s.m.Delete(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		return
	}
	if err := s.m.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) uploadTrace(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Traces().Put(r.URL.Query().Get("label"), r.Body, r.ContentLength)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/traces/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) listTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.m.Traces().List()})
}

func (s *Server) deleteTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.m.Traces().Delete(id) {
		writeError(w, fmt.Errorf("%w: trace %q", ErrNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) listExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": sim.Experiments()})
}

// listTenants serves GET /v1/tenants: per-tenant scheduling state (depth,
// in-flight, sheds by reason, SLO attainment, queue-wait quantiles).
func (s *Server) listTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.m.Scheduler().Views()})
}

// requireStore resolves the result store or reports ErrNoStore.
func (s *Server) requireStore(w http.ResponseWriter) *resultstore.Store {
	store := s.m.Store()
	if store == nil {
		writeError(w, ErrNoStore)
		return nil
	}
	return store
}

func (s *Server) listResults(w http.ResponseWriter, _ *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	entries := store.Entries()
	summaries := make([]resultstore.Summary, len(entries))
	for i, e := range entries {
		summaries[i] = e.Summary()
	}
	writeJSON(w, http.StatusOK, map[string]any{"schema": store.SchemaVersion(), "results": summaries})
}

func (s *Server) getStoredResult(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	key := r.PathValue("key")
	entry, ok := store.Get(key)
	if !ok {
		writeError(w, fmt.Errorf("%w: result %q", ErrNotFound, key))
		return
	}
	writeJSON(w, http.StatusOK, entry)
}

func (s *Server) pinBaseline(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("engine: decoding baseline request: %w", err))
		return
	}
	b, err := store.PinBaseline(req.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/baselines/"+b.Name)
	writeJSON(w, http.StatusCreated, b)
}

func (s *Server) listBaselines(w http.ResponseWriter, _ *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	type summary struct {
		Name      string `json:"name"`
		Schema    string `json:"schema"`
		CreatedAt string `json:"created_at"`
		Results   int    `json:"results"`
	}
	baselines := store.Baselines()
	out := make([]summary, len(baselines))
	for i, b := range baselines {
		out[i] = summary{Name: b.Name, Schema: b.Schema,
			CreatedAt: b.CreatedAt.UTC().Format(time.RFC3339Nano),
			Results:   len(b.Metrics)}
	}
	writeJSON(w, http.StatusOK, map[string]any{"baselines": out})
}

func (s *Server) getBaseline(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	b, err := store.Baseline(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, b)
}

// compareBaseline reports the current store against a pinned baseline:
// GET /v1/compare?baseline=NAME&tolerance=0.02 (tolerance defaults to 0,
// i.e. exact agreement).
func (s *Server) compareBaseline(w http.ResponseWriter, r *http.Request) {
	store := s.requireStore(w)
	if store == nil {
		return
	}
	name := r.URL.Query().Get("baseline")
	if name == "" {
		writeError(w, fmt.Errorf("engine: compare needs ?baseline=name"))
		return
	}
	tol := 0.0
	if q := r.URL.Query().Get("tolerance"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v < 0 {
			writeError(w, fmt.Errorf("engine: bad tolerance %q", q))
			return
		}
		tol = v
	}
	b, err := store.Baseline(name)
	if err != nil {
		writeError(w, err)
		return
	}
	cmp, err := resultstore.Compare(b, store.Entries(), tol)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cmp)
}

func (s *Server) promMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.Write(w, s.m.Collect()) //nolint:errcheck // client gone mid-response
}

func (s *Server) jsonMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Metrics().Snapshot())
}

// Health is the GET /healthz body: liveness plus enough build and uptime
// context to tell which binary is answering.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision"`
	JobsRunning   int64   `json:"jobs_running"`
	QueueDepth    int64   `json:"queue_depth"`
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	goVersion, revision := buildInfo()
	met := s.m.Metrics()
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		UptimeSeconds: met.Uptime().Seconds(),
		GoVersion:     goVersion,
		Revision:      revision,
		JobsRunning:   met.Running.Load(),
		QueueDepth:    met.QueueDepth.Load(),
	})
}

// readyz is readiness, split from /healthz's liveness: a draining or
// saturated process is still alive (do not restart it) but should stop
// receiving new work (503). Load balancers poll this.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	rd := s.m.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

func (s *Server) listAlerts(w http.ResponseWriter, _ *http.Request) {
	views := s.m.Alerts().Alerts()
	counts := map[health.State]int{}
	for _, v := range views {
		counts[v.State]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"alerts": views,
		"counts": counts,
	})
}

func (s *Server) getAlert(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.m.Alerts().Alert(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: alert %q", ErrNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}
