// Package engine turns the one-shot experiment harness (internal/sim) into
// a long-running simulation service: a job manager with a bounded queue and
// admission control, a worker pool executing registry experiments with
// per-job cancellation and timeouts, an in-memory store for uploaded
// traces, service metrics with per-experiment wall-time histograms, and the
// HTTP/JSON API cmd/womd serves.
package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"womcpcm/internal/perfmon"
	"womcpcm/internal/probe"
	"womcpcm/internal/sim"
	"womcpcm/internal/span"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle: Queued → Running → one of the terminal states. A queued
// job canceled before a worker picks it up goes straight to Canceled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// JobRequest is the POST /v1/jobs payload: which registry experiment to
// run, its parameters, and optional trace reference and timeout.
type JobRequest struct {
	// Experiment is a registry name (see sim.ExperimentNames) or alias.
	Experiment string `json:"experiment"`
	// Params parameterizes the run; the zero value is the paper setup.
	Params sim.Params `json:"params"`
	// TraceID references an uploaded trace (required by "replay").
	TraceID string `json:"trace_id,omitempty"`
	// TimeoutMs bounds the run; 0 selects the manager's default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Tenant names the scheduling class this submission bills to; unknown
	// or empty names map to the default tenant ("default" when womd runs
	// without -tenants). The JobView reports the resolved name.
	Tenant string `json:"tenant,omitempty"`
}

// Job is one submitted experiment moving through the manager.
type Job struct {
	id      string
	seq     uint64 // submission sequence, for stable listing order
	exp     sim.Experiment
	req     JobRequest
	params  sim.Params
	timeout time.Duration
	key     string // resultstore content key; "" when not cacheable
	cached  bool   // served from the result store without executing
	dedupOf string // leader job id this submission was folded into
	reqID   string // submitting request's id, carried into lifecycle logs
	// tenant is the scheduling class the job was admitted under: the
	// scheduler's canonical name for the request's tenant, resolved in
	// Submit before the job is visible to workers, so reads need no lock.
	tenant string

	// trace is the root "job" span's position in the job's trace: the
	// parent for every lifecycle child span (queue_wait, execute, store,
	// sse_stream) and the traceparent the JobView reports. rootSpan is that
	// span's live handle, ended exactly once (endTrace) when the job
	// settles; traceEnqueued marks when the job entered the queue, the
	// retroactive queue_wait span's left edge. All three are written only
	// before the job is visible (Submit, under m.mu), like tenant.
	trace         span.Context
	rootSpan      *span.Active
	traceEnqueued time.Time

	// progress counts records processed against the job's known total,
	// fed lock-free by the running experiment (sim.Observer.Progress). Done
	// only grows — see setProgress — so pollers observe a monotone gauge.
	progressDone  atomic.Int64
	progressTotal atomic.Int64

	// span is the job's host-time accounting (internal/perfmon), installed
	// when the worker starts the run; nil until then. The monitor goroutine and progress snapshots
	// read it concurrently, hence the atomic pointer.
	span atomic.Pointer[perfmon.Span]
	// classes accumulates the job's simulated write-class totals, advanced
	// at each of the job's simulation completions — mid-job progress
	// snapshots see counts from every finished simulation, not just at job
	// end.
	classes [probe.NumWriteKinds]atomic.Uint64
	// profiled latches the one slow-job profile capture per job.
	profiled atomic.Bool

	// hub fans live telemetry windows and progress out to SSE subscribers
	// (GET /v1/jobs/{id}/stream); the manager closes it when the job reaches
	// a terminal state. nil for jobs born terminal (cache hits).
	hub *streamHub
	// streamPermille throttles "progress" stream events to ≥1‰ steps so a
	// fine-grained reporting stride cannot flood subscriber buffers.
	streamPermille atomic.Int64

	mu     sync.Mutex
	state  State
	err    error
	result *sim.Result
	perf   *perfmon.JobRecord // final accounting, set at job end
	// submitted is the admission time, written before the job is visible
	// and never changed, so it is read without the lock.
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
	cancelReq bool               // cancel requested before running
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// TraceContext returns the job's position in its trace — the root "job"
// span every lifecycle child parents under.
func (j *Job) TraceContext() span.Context { return j.trace }

// endTrace closes the job's root span with its terminal state. Idempotent
// (span.Active.End latches), and a no-op for a cache hit, whose root span
// ended at admission, so every settle path may call it.
func (j *Job) endTrace() {
	if j.rootSpan == nil {
		return
	}
	j.rootSpan.SetStr("state", string(j.State()))
	j.rootSpan.End()
}

// Result returns the experiment result once the job succeeded.
func (j *Job) Result() (*sim.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// requestCancel asks the job to stop. Returns the state observed: a queued
// job is marked for skipping, a running job has its context canceled, and a
// terminal job is left untouched.
func (j *Job) requestCancel() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.cancelReq = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.state
}

// markRunning transitions Queued → Running unless cancellation was
// requested first, in which case the job finishes as Canceled.
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelReq {
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// settleFollower resolves a deduped submission with its leader's outcome,
// unless the follower was independently canceled first. It returns the state
// the follower ended in.
func (j *Job) settleFollower(state State, res *sim.Result, err error) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return j.state
	}
	if j.cancelReq {
		j.state = StateCanceled
		j.err = context.Canceled
	} else {
		j.state = state
		j.result = res
		j.err = err
	}
	j.finished = time.Now()
	return j.state
}

// finish records the terminal state.
func (j *Job) finish(state State, res *sim.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.result = res
	j.err = err
	j.finished = time.Now()
	j.cancel = nil
}

// setProgress is the job's sim.ProgressFunc. Experiment callbacks may race
// (parallel per-architecture simulations share one cumulative counter), so
// Done advances by compare-and-swap maximum: a stale report can never move
// the gauge backwards.
func (j *Job) setProgress(done, total int64) {
	if total > 0 {
		j.progressTotal.Store(total)
	}
	for {
		cur := j.progressDone.Load()
		if done <= cur || j.progressDone.CompareAndSwap(cur, done) {
			return
		}
	}
}

// reportProgress is the job's sim.ProgressFunc while it runs under a
// manager: the monotone gauge update plus a throttled "progress" event to
// stream subscribers (at most one per permille of completion).
func (j *Job) reportProgress(done, total int64) {
	j.setProgress(done, total)
	if j.hub == nil || total <= 0 {
		return
	}
	p := done * 1000 / total
	for {
		cur := j.streamPermille.Load()
		if p <= cur {
			return
		}
		if j.streamPermille.CompareAndSwap(cur, p) {
			break
		}
	}
	publish(j.hub, "progress", j.Progress())
}

// addClassCounts folds one finished simulation's write-class totals into
// the job's own counters (the manager additionally feeds the service-wide
// metrics).
func (j *Job) addClassCounts(counts [probe.NumWriteKinds]uint64) {
	for k, n := range counts {
		if n > 0 {
			j.classes[k].Add(n)
		}
	}
}

// classCounts snapshots the job's write-class totals as a name→count map,
// omitting zero classes.
func (j *Job) classCounts() map[string]uint64 {
	var out map[string]uint64
	for k := 0; k < probe.NumWriteKinds; k++ {
		if n := j.classes[k].Load(); n > 0 {
			if out == nil {
				out = make(map[string]uint64, probe.NumWriteKinds)
			}
			out[probe.Kind(k).String()] = n
		}
	}
	return out
}

// setPerf records the job's final host-time accounting.
func (j *Job) setPerf(rec perfmon.JobRecord) {
	j.mu.Lock()
	j.perf = &rec
	j.mu.Unlock()
}

// ProgressView is the JSON shape of GET /v1/jobs/{id}/progress. Total is 0
// for experiments that do not report progress (everything but "replay").
// The perf fields make mid-job snapshots self-contained: simulated events
// executed so far, the live throughput, per-class write totals from every
// finished simulation, and how many SSE events this job's subscribers have
// lost to full buffers.
type ProgressView struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Done  int64  `json:"done"`
	Total int64  `json:"total"`
	// Fraction is Done/Total, 0 when the total is unknown.
	Fraction float64 `json:"fraction"`
	// SimEvents and EventsPerSec report live host-time throughput (0
	// before the job starts).
	SimEvents    int64   `json:"sim_events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// WriteClasses maps write class → simulated rows written, accumulated
	// at each simulation completion inside the job.
	WriteClasses map[string]uint64 `json:"write_classes,omitempty"`
	// StreamDropped counts this job's SSE events lost to slow subscribers.
	StreamDropped uint64 `json:"stream_dropped,omitempty"`
}

// Progress snapshots the job's completion gauge and live perf counters.
func (j *Job) Progress() ProgressView {
	v := ProgressView{
		ID:    j.id,
		State: j.State(),
		Done:  j.progressDone.Load(),
		Total: j.progressTotal.Load(),
	}
	if v.Total > 0 {
		v.Fraction = float64(v.Done) / float64(v.Total)
	}
	if span := j.span.Load(); span != nil {
		v.SimEvents = span.LiveEvents()
		v.EventsPerSec, _ = perfmon.Rates(v.SimEvents, span.Elapsed())
	}
	v.WriteClasses = j.classCounts()
	if j.hub != nil {
		v.StreamDropped = j.hub.droppedCount()
	}
	return v
}

// PerfView is the perf block of a terminal job's status: the span's
// host-time record plus the per-job counters the satellite feeds surface.
type PerfView struct {
	perfmon.JobRecord
	// WriteClasses maps write class → simulated rows written by this job.
	WriteClasses map[string]uint64 `json:"write_classes,omitempty"`
	// StreamDropped counts SSE events this job's subscribers lost.
	StreamDropped uint64 `json:"stream_dropped,omitempty"`
}

// JobView is the JSON shape of a job's status.
type JobView struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	State      State  `json:"state"`
	Error      string `json:"error,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
	// Cached marks a submission served straight from the result store.
	Cached bool `json:"cached,omitempty"`
	// DedupOf names the identical in-flight job this one was folded into.
	DedupOf string `json:"dedup_of,omitempty"`
	// Tenant is the scheduling class the job was admitted under.
	Tenant string `json:"tenant,omitempty"`
	// Traceparent is the job's trace position in W3C form;
	// its trace id keys GET /v1/jobs/{id}/trace.
	Traceparent string `json:"traceparent,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// DurationMs is the run's wall time (running jobs: elapsed so far).
	DurationMs int64 `json:"duration_ms,omitempty"`
	// Perf is the job's host-time accounting, present once it finished
	// running.
	Perf *PerfView `json:"perf,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	v := JobView{
		ID:          j.id,
		Experiment:  j.exp.Name,
		State:       j.state,
		TraceID:     j.req.TraceID,
		Cached:      j.cached,
		DedupOf:     j.dedupOf,
		Tenant:      j.tenant,
		Traceparent: j.trace.Traceparent(),
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		switch {
		case !j.finished.IsZero():
			v.DurationMs = j.finished.Sub(j.started).Milliseconds()
		default:
			v.DurationMs = time.Since(j.started).Milliseconds()
		}
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.perf != nil {
		pv := &PerfView{JobRecord: *j.perf}
		v.Perf = pv
	}
	j.mu.Unlock()
	// The per-job atomics live outside j.mu; fill them in after releasing it.
	if v.Perf != nil {
		v.Perf.WriteClasses = j.classCounts()
		if j.hub != nil {
			v.Perf.StreamDropped = j.hub.droppedCount()
		}
	}
	return v
}
