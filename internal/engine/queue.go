package engine

import (
	"errors"
	"fmt"

	"womcpcm/internal/sched"
)

// defaultTenant names the one implicit tenant of a manager built without
// Config.Scheduler: weight 1, no deadline, no caps, bounded at QueueDepth.
const defaultTenant = "default"

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

// enqueue hands job to the scheduler as an item carrying its tenant and
// admission time, from which the scheduler derives the tenant deadline. A
// shed comes back as a *shedRejection.
func (m *Manager) enqueue(job *Job) error {
	_, err := m.sched.Enqueue(sched.Item{
		Tenant:     job.tenant,
		AdmittedAt: job.submitted,
		Payload:    job,
	})
	if err == nil {
		return nil
	}
	if errors.Is(err, sched.ErrClosed) {
		return ErrDraining
	}
	var se *sched.ShedError
	if !errors.As(err, &se) {
		return err
	}
	// A shed at the global bound names the bound; a tenant shed names its
	// tenant and reason.
	msg := fmt.Sprintf("%v: %v", ErrQueueFull, err)
	if se.Reason == "queue_full" {
		msg = fmt.Sprintf("%v (depth %d)", ErrQueueFull, m.sched.MaxDepth())
	}
	return &shedRejection{msg: msg, shed: se}
}
