package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"womcpcm/internal/health"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/probe"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sched"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/tsdb"
)

// Config sizes the manager. Zero values select production defaults.
type Config struct {
	// Workers is the pool size (default GOMAXPROCS). Each worker runs one
	// job at a time; the job's own Parallelism then fans out simulations,
	// so total CPU use is roughly Workers × per-job Parallelism — size
	// per-job Parallelism down when raising Workers.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). A full
	// queue rejects submissions (HTTP 429, reason queue_full) instead of
	// queueing unbounded. Ignored when Scheduler is set — its config's
	// max_depth owns the bound.
	QueueDepth int
	// Scheduler is the pending-job queue (internal/sched). nil builds one
	// implicit tenant "default" — weight 1, no deadline, no caps, bounded
	// at QueueDepth — which serves jobs in submission order. womd -tenants
	// passes the scheduler built from its tenant file and keeps it for
	// SIGHUP reloads.
	Scheduler *sched.Scheduler
	// DefaultTimeout bounds jobs that do not request their own timeout;
	// 0 means no default bound.
	DefaultTimeout time.Duration
	// MaxTraceRecords bounds one trace upload (default 4M records).
	MaxTraceRecords int
	// MaxTraces bounds concurrently stored uploads (default 64).
	MaxTraces int
	// MaxJobs bounds retained job records, completed ones included
	// (default 4096). Submissions beyond it are rejected until jobs are
	// deleted — crude but bounded; a later PR can add result eviction.
	MaxJobs int
	// Store, when set, memoizes successful cacheable runs: submissions
	// whose content key is already stored are served without executing,
	// and concurrent identical submissions are folded into one execution
	// (singleflight). Trace replays bypass the store — their input lives
	// outside the hashed params. The manager does not close the store.
	Store *resultstore.Store
	// Logger receives structured job lifecycle logs (queued, started,
	// finished) with request ids; nil discards them.
	Logger *slog.Logger
	// Profiles, when set, enables automatic slow-job profiling: a monitor
	// goroutine samples running jobs' rolling events/sec and captures
	// CPU+heap pprof profiles into this store when a job falls behind its
	// peers or nears its timeout (see monitor.go). nil disables the
	// monitor entirely.
	Profiles *perfmon.ProfileStore
	// AlertRules is the alerting engine's rule set (internal/health); the
	// zero value selects health.DefaultRules(). A non-empty set must be
	// valid — health.LoadRules returns only valid sets — and New panics
	// on an invalid one.
	AlertRules health.RulesConfig
	// Tracer records the job lifecycle as trace spans (internal/span): a
	// root "job" span per submission with admission, queue-wait, execute,
	// store, and SSE children, continuing a client's W3C traceparent when
	// one is given. nil selects a recorder for service "womd" with span's
	// default ring, sampling every trace a client does not mark unsampled.
	Tracer *span.Recorder
	// History is the embedded metrics history (internal/tsdb): the
	// manager self-scrapes Collect into it, records each finished job's
	// wall time, journals alert transitions, and backfills SLO windows
	// and active alerts from it at start. nil selects an in-memory store.
	// Shutdown closes it.
	History *tsdb.DB

	// run executes one dequeued job; nil selects the job's registry
	// experiment. Tests in this package stub it to hold or fake execution.
	run func(ctx context.Context, job *Job) (*sim.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Scheduler == nil {
		c.Scheduler = sched.New(sched.Config{
			Tenants:  []sched.TenantClass{{Name: defaultTenant, Weight: 1}},
			MaxDepth: c.QueueDepth,
		})
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Tracer == nil {
		c.Tracer = span.New(span.Config{Service: "womd"})
	}
	if c.History == nil {
		db, err := tsdb.Open(tsdb.Options{Logger: c.Logger})
		if err != nil {
			// Only a bad Dir or tier spec fails Open; the defaults have neither.
			panic(fmt.Sprintf("engine: opening in-memory history: %v", err))
		}
		c.History = db
	}
	if c.run == nil {
		c.run = func(ctx context.Context, job *Job) (*sim.Result, error) {
			return job.exp.Run(ctx, job.params)
		}
	}
	return c
}

// Admission and lifecycle errors, mapped to HTTP statuses by the server.
var (
	// ErrQueueFull rejects a submission when the queue is at depth.
	ErrQueueFull = errors.New("engine: job queue full")
	// ErrDraining rejects submissions after shutdown began.
	ErrDraining = errors.New("engine: manager draining")
	// ErrTooManyJobs rejects submissions past the retained-job bound.
	ErrTooManyJobs = errors.New("engine: too many retained jobs")
	// ErrNotFound reports an unknown job or trace id.
	ErrNotFound = errors.New("engine: not found")
)

// Manager owns the job queue, the worker pool, the trace store, the
// metrics, and the observability planes: tracing, alerting, metric
// history, and per-job host-time accounting. One Manager serves one
// process.
type Manager struct {
	cfg     Config
	metrics *Metrics
	traces  *TraceStore
	store   *resultstore.Store // nil when caching is off
	log     *slog.Logger
	alerts  *health.Engine
	// exemplars records the latest job/trace per subject (service,
	// tenant, shed, slow) as jobs settle, so alert annotations can point
	// at a concrete trace.
	exemplars *health.Exemplars

	baseCtx context.Context // canceled to abort all running jobs
	abort   context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      uint64
	draining bool
	sched    *sched.Scheduler
	// inflight tracks one leader job per content key so identical
	// concurrent submissions share a single execution.
	inflight map[string]*flight

	// monStop/monDone bracket the slow-job monitor goroutine's lifetime;
	// both nil when cfg.Profiles is nil.
	monStop chan struct{}
	monDone chan struct{}

	wg sync.WaitGroup
}

// flight is one in-progress execution of a content key: the job doing the
// work plus every identical submission waiting on its outcome.
type flight struct {
	leader  *Job
	waiters []*Job
}

// New starts a manager, its worker pool, and its observability planes.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		metrics:   NewMetrics(),
		traces:    NewTraceStore(cfg.MaxTraceRecords, cfg.MaxTraces),
		store:     cfg.Store,
		log:       cfg.Logger,
		exemplars: health.NewExemplars(),
		baseCtx:   ctx,
		abort:     cancel,
		jobs:      make(map[string]*Job),
		sched:     cfg.Scheduler,
		inflight:  make(map[string]*flight),
	}
	m.startPlanes()
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	if cfg.Profiles != nil {
		m.monStop = make(chan struct{})
		m.monDone = make(chan struct{})
		go m.monitor()
	}
	return m
}

// Metrics exposes the service counters.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Traces exposes the upload store.
func (m *Manager) Traces() *TraceStore { return m.traces }

// Store exposes the result store; nil when caching is off.
func (m *Manager) Store() *resultstore.Store { return m.store }

// Profiles exposes the slow-job profile store; nil when profiling is off.
func (m *Manager) Profiles() *perfmon.ProfileStore { return m.cfg.Profiles }

// Tracer exposes the span recorder.
func (m *Manager) Tracer() *span.Recorder { return m.cfg.Tracer }

// Alerts exposes the alerting engine: the alert set, and Reload for new
// rules.
func (m *Manager) Alerts() *health.Engine { return m.alerts }

// History exposes the metric history store.
func (m *Manager) History() *tsdb.DB { return m.cfg.History }

// Scheduler exposes the job queue: per-tenant views, the womd_tenant_*
// collector, SLO windows, and Reload.
func (m *Manager) Scheduler() *sched.Scheduler { return m.sched }

// QueueStats reports the pending queue's occupancy and admission bound —
// the saturation signal for readiness and alerting.
func (m *Manager) QueueStats() (depth, capacity int) {
	return m.sched.Depth(), m.sched.MaxDepth()
}

// DefaultReadySaturation is the queue-occupancy fraction at which
// readiness flips to not-ready: past it, new work is likely to be shed,
// so load balancers should route elsewhere while the process keeps
// serving what it already holds.
const DefaultReadySaturation = 0.9

// Readiness is the GET /readyz body: distinct from liveness (/healthz),
// which stays truthful even while draining.
type Readiness struct {
	Ready bool `json:"ready"`
	// Reason says why Ready is false ("draining", "queue saturated ...").
	Reason     string `json:"reason,omitempty"`
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap,omitempty"`
}

// Readiness reports whether this process should receive new work: false
// while draining or when the queue is at or past
// DefaultReadySaturation×capacity.
func (m *Manager) Readiness() Readiness {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	depth, capacity := m.QueueStats()
	r := Readiness{Ready: true, Draining: draining, QueueDepth: depth, QueueCap: capacity}
	switch {
	case draining:
		r.Ready, r.Reason = false, "draining"
	case capacity > 0 && float64(depth) >= DefaultReadySaturation*float64(capacity):
		r.Ready, r.Reason = false,
			fmt.Sprintf("queue saturated (%d of %d)", depth, capacity)
	}
	return r
}

// Submit validates the request, resolves its trace reference, and enqueues
// a job. A full queue or a draining manager rejects immediately —
// admission control instead of unbounded buffering. ctx only supplies the
// request id for the job's lifecycle logs (WithRequestID); it does not bound
// the job's execution — that is the job timeout's role.
func (m *Manager) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	submitStart := time.Now()
	exp, err := sim.LookupExperiment(req.Experiment)
	if err != nil {
		return nil, err
	}
	params := req.Params
	if req.TraceID != "" {
		st, ok := m.traces.Get(req.TraceID)
		if !ok {
			return nil, fmt.Errorf("%w: trace %q", ErrNotFound, req.TraceID)
		}
		params.Trace = st.Records()
		params.TraceLabel = st.Label
	}
	if exp.NeedsTrace && len(params.Trace) == 0 {
		return nil, fmt.Errorf("engine: experiment %q needs trace_id", exp.Name)
	}
	if exp.NeedsProfile && params.Profile == nil {
		return nil, fmt.Errorf("engine: experiment %q needs params.profile", exp.Name)
	}
	// Reject malformed params at admission instead of at run time.
	if _, err := params.Config(context.Background()); err != nil {
		return nil, err
	}
	timeout := m.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	reqID := RequestIDFrom(ctx)
	tenant := m.sched.Canonical(req.Tenant)

	// Content-address the request when the store can serve or dedup it.
	var key string
	if m.store != nil && resultstore.Cacheable(exp, params) {
		if k, err := resultstore.KeyForParams(exp.Name, params, m.store.SchemaVersion()); err == nil {
			key = k
		}
	}

	// The job's root "job" span. A submission carrying a client's
	// traceparent continues that trace; otherwise a fresh trace starts
	// here. Every reject path below ends the span with
	// the error attached; settled jobs end it via endTrace.
	var root *span.Active
	if parent, ok := TraceParentFrom(ctx); ok {
		root = m.cfg.Tracer.StartSpan(parent, "job")
	} else {
		root = m.cfg.Tracer.StartTrace("job")
	}
	root.SetStr("experiment", exp.Name)
	if reqID != "" {
		root.SetStr("request_id", reqID)
	}
	if req.Tenant != "" {
		root.SetStr("tenant", req.Tenant)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.metrics.Rejected.Add(1)
		root.SetStr("error", ErrDraining.Error())
		root.End()
		return nil, ErrDraining
	}
	if len(m.jobs) >= m.cfg.MaxJobs {
		m.metrics.Rejected.Add(1)
		root.SetStr("error", ErrTooManyJobs.Error())
		root.End()
		return nil, ErrTooManyJobs
	}
	if key != "" {
		// Cache hit: the job is born succeeded, never touching the queue —
		// a disk read instead of minutes of simulation.
		getStart := time.Now()
		if entry, ok := m.store.Get(key); ok {
			m.metrics.CacheHits.Add(1)
			now := time.Now()
			m.seq++
			job := &Job{
				id: fmt.Sprintf("j-%06d", m.seq), seq: m.seq,
				exp: exp, req: req, params: params, timeout: timeout,
				key: key, cached: true, reqID: reqID, tenant: tenant,
				trace: root.Context(),
				state: StateSucceeded, result: entry.Result,
				submitted: now, started: now, finished: now,
			}
			m.jobs[job.id] = job
			m.cfg.Tracer.Record(root.Context(), "store_hit", getStart, now,
				span.Attrs{"key": key})
			m.cfg.Tracer.Record(root.Context(), "admission", submitStart, now, nil)
			root.SetStr("job", job.id)
			root.SetBool("cached", true)
			root.SetStr("state", string(StateSucceeded))
			root.End()
			m.log.Info("job served from cache", "job", job.id,
				"experiment", exp.Name, "request_id", reqID, "key", key)
			return job, nil
		}
		m.metrics.CacheMisses.Add(1)
		// Singleflight: an identical job is already queued or running, so
		// this submission waits on that execution instead of repeating it.
		if fl, ok := m.inflight[key]; ok {
			m.metrics.Deduped.Add(1)
			m.seq++
			job := &Job{
				id: fmt.Sprintf("j-%06d", m.seq), seq: m.seq,
				exp: exp, req: req, params: params, timeout: timeout,
				key: key, dedupOf: fl.leader.id, reqID: reqID, tenant: tenant,
				trace: root.Context(), rootSpan: root,
				state: StateQueued, submitted: time.Now(),
				hub: newStreamHub(m.metrics),
			}
			fl.waiters = append(fl.waiters, job)
			m.jobs[job.id] = job
			m.cfg.Tracer.Record(root.Context(), "admission", submitStart, time.Now(), nil)
			root.SetStr("job", job.id)
			root.SetStr("dedup_of", fl.leader.id)
			m.log.Info("job deduped", "job", job.id, "experiment", exp.Name,
				"request_id", reqID, "leader", fl.leader.id)
			return job, nil
		}
	}
	m.seq++
	// enq is both the admission span's right edge and the queue_wait
	// span's left edge (see recordQueueWait), set before Enqueue makes the
	// job visible to workers.
	enq := time.Now()
	job := &Job{
		id:            fmt.Sprintf("j-%06d", m.seq),
		seq:           m.seq,
		exp:           exp,
		req:           req,
		params:        params,
		timeout:       timeout,
		key:           key,
		reqID:         reqID,
		tenant:        tenant,
		trace:         root.Context(),
		rootSpan:      root,
		traceEnqueued: enq,
		state:         StateQueued,
		submitted:     enq,
		hub:           newStreamHub(m.metrics),
	}
	if err := m.enqueue(job); err != nil {
		m.seq-- // id not spent
		m.metrics.Rejected.Add(1)
		// Stamp shed rejections with the trace id so the 429 body can be
		// joined back to this trace (errors.As exposes the pointer).
		var se *sched.ShedError
		if errors.As(err, &se) {
			se.TraceID = root.Context().TraceID
			m.exemplars.Observe("shed", "", se.TraceID)
			if se.Tenant != "" {
				m.exemplars.Observe("shed:tenant:"+se.Tenant, "", se.TraceID)
			}
		}
		root.SetStr("error", err.Error())
		root.End()
		return nil, err
	}
	m.jobs[job.id] = job
	if key != "" {
		m.inflight[key] = &flight{leader: job}
	}
	m.cfg.Tracer.Record(root.Context(), "admission", submitStart, enq, nil)
	root.SetStr("job", job.id)
	m.metrics.Queued.Add(1)
	m.metrics.QueueDepth.Add(1)
	m.log.Info("job queued", "job", job.id, "experiment", exp.Name,
		"request_id", reqID, "queue_depth", m.metrics.QueueDepth.Load())
	return job, nil
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists jobs sorted by submission sequence, so listings are
// deterministic regardless of map iteration or deletion history.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Cancel stops a job: queued jobs are skipped when dequeued, running jobs
// have their context canceled. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	j.requestCancel()
	return nil
}

// Delete forgets a terminal job, freeing its retained result.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if !j.State().Terminal() {
		return fmt.Errorf("engine: job %q is %s; cancel it first", id, j.State())
	}
	delete(m.jobs, id)
	return nil
}

// Shutdown drains gracefully: submissions are rejected from now on, queued
// and in-flight jobs run to completion, and workers exit. If ctx expires
// first, running jobs are aborted via their contexts and Shutdown returns
// ctx.Err() after the pool stops. Either way it then stops alerting and
// flushes and closes the metric history.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.sched.Close() // safe: submitters enqueue under m.mu and check draining
		if m.monStop != nil {
			close(m.monStop)
		}
	}
	m.mu.Unlock()
	if m.monDone != nil {
		<-m.monDone
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		m.abort()
		<-done
		err = ctx.Err()
	}
	m.stopPlanes()
	return err
}

// worker executes queued jobs until the queue closes on drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		it, ok := m.sched.Dequeue()
		if !ok {
			return
		}
		job := it.Payload.(*Job)
		m.metrics.QueueDepth.Add(-1)
		m.runJob(job)
		// it.Tenant is the tenant the scheduler charged; it differs from
		// job.tenant only if a reload removed that tenant mid-Submit.
		m.sched.Done(it.Tenant)
	}
}

// runJob drives one job through Running to a terminal state.
func (m *Manager) runJob(job *Job) {
	// The hub closes on every exit path: subscribers see the buffered tail,
	// then a closed feed, and serve the terminal event themselves.
	defer job.hub.close()
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if job.timeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, job.timeout)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	defer cancel()
	if !job.markRunning(cancel) {
		m.metrics.Canceled.Add(1)
		m.recordQueueWait(job)
		m.settleFlight(job, StateCanceled, nil, context.Canceled)
		job.endTrace()
		m.log.Info("job canceled before start", "job", job.id,
			"experiment", job.exp.Name, "request_id", job.reqID)
		return
	}
	m.metrics.Running.Add(1)
	m.metrics.ObserveQueueWait(time.Since(job.submitted))
	m.recordQueueWait(job)
	m.log.Info("job started", "job", job.id, "experiment", job.exp.Name,
		"request_id", job.reqID)
	start := time.Now()
	// Host-time accounting brackets the run.
	pspan := perfmon.Begin()
	job.span.Store(pspan)
	execSpan := m.cfg.Tracer.StartSpan(job.trace, "execute")
	res, err := m.cfg.run(m.jobContext(ctx, job), job)
	m.metrics.Running.Add(-1)
	wall := time.Since(start)
	m.metrics.ObserveWall(job.exp.Name, wall)
	m.cfg.History.ObserveJob(job.exp.Name, wall.Seconds())
	rec := pspan.End()
	job.setPerf(rec)
	m.metrics.ObservePerf(job.exp.Name, rec)
	// Link the execute span to the perfmon record: the same sim-event
	// and host-cost figures the perf block reports, on the waterfall.
	execSpan.SetInt("sim_events", rec.SimEvents)
	execSpan.SetFloat("events_per_sec", rec.EventsPerSec)
	execSpan.SetInt("cpu_ns", rec.CPUNs)
	execSpan.SetInt("alloc_bytes", int64(rec.AllocBytes))
	execSpan.End()
	switch {
	case err == nil:
		m.metrics.Completed.Add(1)
		job.finish(StateSucceeded, res, nil)
		m.storeResult(job, res, wall)
		m.settleFlight(job, StateSucceeded, res, nil)
	case errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("engine: job timed out after %s", job.timeout)
		m.metrics.Failed.Add(1)
		job.finish(StateFailed, nil, err)
		m.settleFlight(job, StateFailed, nil, err)
	case errors.Is(err, context.Canceled):
		m.metrics.Canceled.Add(1)
		job.finish(StateCanceled, nil, err)
		m.settleFlight(job, StateCanceled, nil, err)
	default:
		m.metrics.Failed.Add(1)
		job.finish(StateFailed, nil, err)
		m.settleFlight(job, StateFailed, nil, err)
	}
	job.endTrace()
	m.observeExemplar(job)
	attrs := []any{"job", job.id, "experiment", job.exp.Name,
		"request_id", job.reqID, "state", string(job.State()),
		"duration_ms", wall.Milliseconds()}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		m.log.Warn("job finished", attrs...)
	} else {
		m.log.Info("job finished", attrs...)
	}
}

// observeExemplar feeds the alerting plane's per-subject exemplar store
// as a job settles, so a firing alert can point at a concrete recent
// trace.
func (m *Manager) observeExemplar(job *Job) {
	tid := job.trace.TraceID
	m.exemplars.Observe("service", job.id, tid)
	if job.tenant != "" {
		m.exemplars.Observe("tenant:"+job.tenant, job.id, tid)
	}
}

// recordQueueWait backfills the job's queue_wait span now that a worker
// picked it up — the interval [enqueue, dequeue] is only known after the
// fact, so it is recorded retroactively (span.Recorder.Record).
func (m *Manager) recordQueueWait(job *Job) {
	if job.traceEnqueued.IsZero() {
		return
	}
	var attrs span.Attrs
	if job.tenant != "" {
		attrs = span.Attrs{"tenant": job.tenant}
	}
	m.cfg.Tracer.Record(job.trace, "queue_wait", job.traceEnqueued, time.Now(), attrs)
}

// jobContext decorates a running job's context with one sim.Observer
// carrying the live feeds: the monotone progress gauge plus stream events,
// windowed telemetry for stream subscribers, write-class accounting into
// both the service metrics and the job's own counters, and the live event
// counter the perf span and the slow-job monitor read.
func (m *Manager) jobContext(ctx context.Context, job *Job) context.Context {
	obs := sim.Observer{
		Progress: job.reportProgress,
		ClassCounts: func(counts [probe.NumWriteKinds]uint64) {
			m.metrics.AddWriteClasses(counts)
			job.addClassCounts(counts)
		},
		Events: job.span.Load().Events(),
	}
	if hub := job.hub; hub != nil {
		obs.Telemetry = func(arch string, w telemetry.Window) {
			publish(hub, "window", streamWindow{Arch: arch, Window: w})
		}
	}
	return sim.WithObserver(ctx, obs)
}

// storeResult persists one successful cacheable run. Store failures do not
// fail the job — the result was computed and is served from memory; the
// miss just repeats next time.
func (m *Manager) storeResult(job *Job, res *sim.Result, wall time.Duration) {
	if m.store == nil || job.key == "" {
		return
	}
	sp := m.cfg.Tracer.StartSpan(job.trace, "store")
	sp.SetStr("key", job.key)
	defer sp.End()
	doc, err := json.Marshal(job.params)
	if err != nil {
		m.metrics.StoreErrors.Add(1)
		sp.SetStr("outcome", "error")
		return
	}
	canon, err := resultstore.CanonicalJSON(doc)
	if err != nil {
		m.metrics.StoreErrors.Add(1)
		sp.SetStr("outcome", "error")
		return
	}
	if err := m.store.Put(resultstore.Entry{
		Key:        job.key,
		Experiment: job.exp.Name,
		Schema:     m.store.SchemaVersion(),
		Params:     canon,
		Result:     res,
		WallNs:     wall.Nanoseconds(),
	}); err != nil {
		m.metrics.StoreErrors.Add(1)
		sp.SetStr("outcome", "error")
		return
	}
	sp.SetStr("outcome", "ok")
}

// settleFlight resolves every submission deduped onto job with its outcome
// and retires the content key from the in-flight set. Followers of a failed
// or canceled leader inherit that outcome: re-submitting afterwards starts
// a fresh execution.
func (m *Manager) settleFlight(job *Job, state State, res *sim.Result, err error) {
	if job.key == "" {
		return
	}
	m.mu.Lock()
	fl := m.inflight[job.key]
	if fl != nil && fl.leader == job {
		delete(m.inflight, job.key)
	} else {
		fl = nil
	}
	m.mu.Unlock()
	if fl == nil {
		return
	}
	for _, w := range fl.waiters {
		switch w.settleFollower(state, res, err) {
		case StateSucceeded:
			m.metrics.Completed.Add(1)
		case StateFailed:
			m.metrics.Failed.Add(1)
		case StateCanceled:
			m.metrics.Canceled.Add(1)
		}
		w.endTrace()
		w.hub.close()
	}
}
