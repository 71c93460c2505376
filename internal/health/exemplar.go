package health

import (
	"sync"
	"time"
)

// Exemplar is the most recent job observed for a subject: the concrete
// instance an alert annotation points at, linking the aggregate signal
// back to one distributed trace (GET /v1/jobs/{id}/trace).
type Exemplar struct {
	JobID   string
	TraceID string
	At      time.Time
}

// maxExemplarSubjects bounds the subject map; subjects are tenants and a
// few fixed planes, so the cap exists only as a backstop against
// unbounded tenant-name churn.
const maxExemplarSubjects = 4096

// Exemplars is a last-job-per-subject store fed by the engine on every
// job settle (subjects "service", "tenant:<name>", "slow",
// "shed", "shed:tenant:<name>") and read by the alert evaluator to
// annotate violations. A nil *Exemplars is inert: Observe and Get cost
// one pointer check, which is the whole -alerts=false hot-path tax.
type Exemplars struct {
	mu sync.Mutex
	m  map[string]Exemplar
}

// NewExemplars builds an empty store.
func NewExemplars() *Exemplars {
	return &Exemplars{m: make(map[string]Exemplar, 16)}
}

// Observe records the latest job seen for subject. No-op on nil.
func (e *Exemplars) Observe(subject, jobID, traceID string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if _, ok := e.m[subject]; ok || len(e.m) < maxExemplarSubjects {
		e.m[subject] = Exemplar{JobID: jobID, TraceID: traceID, At: time.Now()}
	}
	e.mu.Unlock()
}

// Get returns the latest exemplar for subject, if any. No-op on nil.
func (e *Exemplars) Get(subject string) (Exemplar, bool) {
	if e == nil {
		return Exemplar{}, false
	}
	e.mu.Lock()
	ex, ok := e.m[subject]
	e.mu.Unlock()
	return ex, ok
}
