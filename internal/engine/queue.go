package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"womcpcm/internal/sched"
)

// Queue is the manager's pending-job buffer, pluggable so womd can swap
// the default FIFO for the multi-tenant scheduler (internal/sched) without
// the manager knowing. The manager calls Enqueue under its admission lock,
// workers call Dequeue/Done concurrently, and Close is called exactly once
// at drain: admitted jobs keep flowing to workers, then Dequeue reports
// ok=false.
type Queue interface {
	// Enqueue admits one job or rejects it with an error satisfying
	// errors.Is(err, ErrQueueFull) (and carrying a *sched.ShedError with
	// the machine-readable reason and Retry-After).
	Enqueue(*Job) error
	// Dequeue blocks for the next job; ok=false after Close once drained.
	Dequeue() (*Job, bool)
	// Done releases per-tenant accounting for a dequeued job after it
	// finishes executing. Must be called exactly once per Dequeue.
	Done(*Job)
	// Depth reports jobs currently queued.
	Depth() int
	// Cap reports the queue's admission bound (0 = unbounded/unknown) —
	// the denominator for readiness and saturation alerting.
	Cap() int
	// Close stops admissions and lets queued jobs drain.
	Close()
}

// shedRejection couples ErrQueueFull with the scheduler's shed detail, so
// errors.Is(err, ErrQueueFull) keeps selecting the 429 path everywhere
// while errors.As(err, **sched.ShedError) exposes
// the reason, tenant, and Retry-After to the error body.
type shedRejection struct {
	msg  string
	shed *sched.ShedError
}

func (e *shedRejection) Error() string   { return e.msg }
func (e *shedRejection) Unwrap() []error { return []error{ErrQueueFull, e.shed} }

// fifoQueue is the default single-queue behavior: a buffered channel,
// exactly as the manager used before queues were pluggable. Its only
// addition is a drain-rate tracker so a full queue's 429 carries an honest
// Retry-After.
type fifoQueue struct {
	ch chan *Job

	mu    sync.Mutex
	drain sched.RateTracker
}

func newFIFOQueue(depth int) *fifoQueue {
	return &fifoQueue{ch: make(chan *Job, depth)}
}

func (q *fifoQueue) Enqueue(j *Job) error {
	select {
	case q.ch <- j:
		return nil
	default:
	}
	q.mu.Lock()
	retryAfter := q.drain.RetryAfter(1)
	q.mu.Unlock()
	return &shedRejection{
		msg: fmt.Sprintf("%v (depth %d)", ErrQueueFull, cap(q.ch)),
		shed: &sched.ShedError{
			Tenant:     j.tenant,
			Reason:     "queue_full",
			RetryAfter: retryAfter,
		},
	}
}

func (q *fifoQueue) Dequeue() (*Job, bool) {
	j, ok := <-q.ch
	if ok {
		q.mu.Lock()
		q.drain.Observe(time.Now())
		q.mu.Unlock()
	}
	return j, ok
}

func (q *fifoQueue) Done(*Job) {}

func (q *fifoQueue) Depth() int { return len(q.ch) }

func (q *fifoQueue) Cap() int { return cap(q.ch) }

// Close is safe against concurrent Enqueue because the manager serializes
// both under its admission lock and never enqueues after draining is set.
func (q *fifoQueue) Close() { close(q.ch) }

// tenantQueue adapts a sched.Scheduler to the Queue interface: jobs become
// scheduler items carrying their tenant name and admission time, from
// which the scheduler derives the tenant deadline.
type tenantQueue struct {
	s *sched.Scheduler
}

// NewTenantQueue wraps the multi-tenant scheduler as the manager's queue
// (Config.Queue). The caller keeps the scheduler for Reload and Collect.
func NewTenantQueue(s *sched.Scheduler) Queue { return &tenantQueue{s: s} }

func (q *tenantQueue) Enqueue(j *Job) error {
	// Resolve the canonical tenant before the scheduler can hand the job
	// to a worker: once Enqueue returns, a concurrent Dequeue/Done may
	// already be reading j.tenant.
	name := q.s.Canonical(j.req.Tenant)
	j.tenant = name
	_, err := q.s.Enqueue(sched.Item{
		Tenant:     name,
		AdmittedAt: j.submitted,
		Payload:    j,
	})
	if err == nil {
		return nil
	}
	if errors.Is(err, sched.ErrClosed) {
		return ErrDraining
	}
	var se *sched.ShedError
	if errors.As(err, &se) {
		return &shedRejection{
			msg:  fmt.Sprintf("%v: %v", ErrQueueFull, err),
			shed: se,
		}
	}
	return err
}

func (q *tenantQueue) Dequeue() (*Job, bool) {
	it, ok := q.s.Dequeue()
	if !ok {
		return nil, false
	}
	return it.Payload.(*Job), true
}

func (q *tenantQueue) Done(j *Job) { q.s.Done(j.tenant) }

func (q *tenantQueue) Depth() int { return q.s.Depth() }

func (q *tenantQueue) Cap() int { return q.s.MaxDepth() }

func (q *tenantQueue) Close() { q.s.Close() }

// Views exposes the per-tenant state for GET /v1/tenants; the manager
// discovers it by interface assertion so the FIFO stays oblivious.
func (q *tenantQueue) Views() []sched.TenantView { return q.s.Views() }
