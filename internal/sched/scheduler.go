package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"

	"womcpcm/internal/stats"
)

// strideScale is the stride-scheduling numerator: a tenant's pass advances
// by strideScale/weight per dequeue, so higher weights advance slower and
// are picked more often.
const strideScale = 1 << 20

// Retry-After clamp for shed responses.
const (
	minRetryAfter = 1 * time.Second
	maxRetryAfter = 60 * time.Second
)

// ErrClosed rejects enqueues after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// ShedError is a rejected admission: which tenant was shed, why, and how
// long the client should back off (computed from the observed drain rate).
// Reasons: "queue_full" (global bound), "priority_shed" (graduated shed of
// a lower-priority tenant), "tenant_queue_full" (per-tenant depth cap).
type ShedError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
	// TraceID is the shed submission's distributed-trace id, filled in by
	// the engine (which owns tracing) so a 429 body can be joined back to
	// its trace. Not part of Error() — purely machine-readable annotation.
	TraceID string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: tenant %q shed (%s); retry after %s",
		e.Tenant, e.Reason, e.RetryAfter)
}

// Item is one unit of queued work. Payload is opaque to the scheduler.
type Item struct {
	// Tenant names the submitting class; unknown or empty names map to the
	// config's default tenant.
	Tenant string
	// AdmittedAt is the item's admission time, from which the tenant's
	// deadline budget is measured; zero means now.
	AdmittedAt time.Time
	// Deadline overrides the tenant's deadline budget when non-zero.
	Deadline time.Time
	// Payload travels through untouched.
	Payload any
}

// queued is one heap entry: the item plus its resolved EDF key.
type queued struct {
	item     Item
	deadline time.Time // zero = none (sorts after every real deadline)
	seq      uint64    // admission order, the EDF tie-break
}

// itemHeap is an EDF min-heap: earliest deadline first, items without a
// deadline after every dated one, admission order breaking ties.
type itemHeap []*queued

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	di, dj := h[i].deadline, h[j].deadline
	switch {
	case di.IsZero() && dj.IsZero():
		return h[i].seq < h[j].seq
	case di.IsZero():
		return false
	case dj.IsZero():
		return true
	case di.Equal(dj):
		return h[i].seq < h[j].seq
	default:
		return di.Before(dj)
	}
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)   { *h = append(*h, x.(*queued)) }
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// tenantState is one tenant's live scheduling state. Counters survive
// Reload so operators do not lose history on a SIGHUP.
type tenantState struct {
	cls     TenantClass
	items   itemHeap
	pass    uint64 // stride virtual time; min pass is dequeued next
	stride  uint64 // strideScale / weight
	shedAt  int    // total-depth threshold at which this tenant sheds
	removed bool   // dropped by Reload; drains, takes no new work

	inflight int
	admits   uint64
	sheds    uint64
	dequeues uint64
	sloMet   uint64
	slo      *sloRing // windowed attainment, the burn-rate input
	shedWhy  map[string]uint64
	wait     stats.Latency // queue-wait distribution, observed at dequeue
}

// Scheduler is the multi-tenant queue. All methods are safe for concurrent
// use; Dequeue blocks until work is available or Close drains the last
// item.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cfg    Config
	ten    map[string]*tenantState
	order  []string // stable view/pick order: config order, removed last
	depth  int
	seq    uint64
	closed bool
	drain  RateTracker
	now    func() time.Time // test clock hook
}

// New builds a scheduler from a validated config (use ParseConfig or
// LoadConfig; New normalizes defaults itself for programmatic configs).
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg: cfg,
		ten: make(map[string]*tenantState, len(cfg.Tenants)),
		now: time.Now,
	}
	s.cond = sync.NewCond(&s.mu)
	thresholds := shedThresholds(cfg)
	for _, cls := range cfg.Tenants {
		s.ten[cls.Name] = &tenantState{
			cls:     cls,
			stride:  strideScale / uint64(cls.Weight),
			shedAt:  thresholds[cls.Name],
			slo:     newSLORing(),
			shedWhy: make(map[string]uint64),
		}
		s.order = append(s.order, cls.Name)
	}
	return s
}

// Canonical maps a submitted tenant name onto the class that will serve
// it: a configured, non-removed tenant keeps its name; anything else is
// the default tenant.
func (s *Scheduler) Canonical(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canonicalLocked(name)
}

func (s *Scheduler) canonicalLocked(name string) string {
	if t, ok := s.ten[name]; ok && !t.removed {
		return name
	}
	return s.cfg.DefaultTenant
}

// Enqueue admits one item or sheds it. The returned error is a *ShedError
// (admission refused, back off) or ErrClosed. On success the resolved
// tenant name is returned — callers record it so Done releases the right
// in-flight slot even when the submitted name mapped to the default.
func (s *Scheduler) Enqueue(it Item) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	name := s.canonicalLocked(it.Tenant)
	t := s.ten[name]
	if t.cls.QueueDepth > 0 && t.items.Len() >= t.cls.QueueDepth {
		return "", s.shedLocked(t, "tenant_queue_full", t.items.Len()-t.cls.QueueDepth+1)
	}
	if s.depth >= t.shedAt {
		reason := "priority_shed"
		if t.shedAt >= s.cfg.MaxDepth {
			reason = "queue_full"
		}
		return "", s.shedLocked(t, reason, s.depth-t.shedAt+1)
	}
	admitted := it.AdmittedAt
	if admitted.IsZero() {
		admitted = s.now()
	}
	deadline := it.Deadline
	if deadline.IsZero() && t.cls.DeadlineMs > 0 {
		deadline = admitted.Add(time.Duration(t.cls.DeadlineMs) * time.Millisecond)
	}
	it.Tenant, it.AdmittedAt, it.Deadline = name, admitted, deadline
	s.seq++
	if t.items.Len() == 0 {
		// A tenant returning from idle resumes at the current virtual time
		// instead of cashing in banked credit from its idle period.
		t.pass = max(t.pass, s.minActivePassLocked())
	}
	heap.Push(&t.items, &queued{item: it, deadline: deadline, seq: s.seq})
	s.depth++
	t.admits++
	s.cond.Signal()
	return name, nil
}

// shedLocked records one shed and builds its error. excess sizes the
// Retry-After: how many dequeues must happen before this admission would
// clear its threshold.
func (s *Scheduler) shedLocked(t *tenantState, reason string, excess int) *ShedError {
	t.sheds++
	t.shedWhy[reason]++
	return &ShedError{
		Tenant:     t.cls.Name,
		Reason:     reason,
		RetryAfter: s.drain.RetryAfter(excess),
	}
}

// Dequeue blocks for the next item under the scheduling policy: among
// tenants with queued work and free in-flight slots, the minimum stride
// pass wins; within the winner, the earliest deadline. It returns ok=false
// once the scheduler is closed and drained.
func (s *Scheduler) Dequeue() (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := s.pickLocked(); t != nil {
			q := heap.Pop(&t.items).(*queued)
			s.depth--
			t.pass += t.stride
			t.inflight++
			t.dequeues++
			now := s.now()
			t.wait.Observe(now.Sub(q.item.AdmittedAt).Nanoseconds())
			met := q.deadline.IsZero() || !now.After(q.deadline)
			if met {
				t.sloMet++
			}
			t.slo.observe(now.Unix(), met)
			s.drain.Observe(now)
			// Another item may be immediately runnable by a second worker.
			s.cond.Signal()
			return q.item, true
		}
		if s.closed && s.depth == 0 {
			return Item{}, false
		}
		s.cond.Wait()
	}
}

// pickLocked selects the dequeue winner: the backlogged, un-capped tenant
// with the minimum pass, ties broken by priority then name for
// determinism.
func (s *Scheduler) pickLocked() *tenantState {
	var best *tenantState
	for _, name := range s.order {
		t := s.ten[name]
		if t.items.Len() == 0 {
			continue
		}
		if t.cls.MaxInflight > 0 && t.inflight >= t.cls.MaxInflight {
			continue
		}
		if best == nil || t.pass < best.pass ||
			(t.pass == best.pass && t.cls.Priority < best.cls.Priority) {
			best = t
		}
	}
	return best
}

// minActivePassLocked is the smallest pass among backlogged tenants — the
// current virtual time an idle tenant rejoins at (0 when none are
// backlogged, i.e. virtual time is wherever the newcomer left off).
func (s *Scheduler) minActivePassLocked() uint64 {
	var min uint64
	found := false
	for _, t := range s.ten {
		if t.items.Len() == 0 {
			continue
		}
		if !found || t.pass < min {
			min, found = t.pass, true
		}
	}
	return min
}

// Done releases one in-flight slot for the named tenant (the canonical
// name Enqueue returned). It must be called exactly once per dequeued
// item, after execution finishes.
func (s *Scheduler) Done(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.ten[tenant]; ok && t.inflight > 0 {
		t.inflight--
		if t.removed && t.items.Len() == 0 && t.inflight == 0 {
			s.dropLocked(tenant)
		}
		s.cond.Signal()
	}
}

// Depth reports the total queued items.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Close stops admissions. Queued items keep draining through Dequeue;
// once empty, Dequeue returns ok=false.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Reload swaps the tenant configuration in place: existing tenants keep
// their counters and queued work under the new class parameters, new
// tenants join, and tenants missing from the new config are marked removed
// — they drain what they hold, then disappear; new submissions under their
// name land on the (possibly new) default tenant.
func (s *Scheduler) Reload(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	thresholds := shedThresholds(cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make(map[string]bool, len(cfg.Tenants))
	order := make([]string, 0, len(cfg.Tenants))
	for _, cls := range cfg.Tenants {
		keep[cls.Name] = true
		order = append(order, cls.Name)
		if t, ok := s.ten[cls.Name]; ok {
			t.cls = cls
			t.stride = strideScale / uint64(cls.Weight)
			t.shedAt = thresholds[cls.Name]
			t.removed = false
			continue
		}
		s.ten[cls.Name] = &tenantState{
			cls:     cls,
			stride:  strideScale / uint64(cls.Weight),
			shedAt:  thresholds[cls.Name],
			slo:     newSLORing(),
			shedWhy: make(map[string]uint64),
		}
	}
	for name, t := range s.ten {
		if keep[name] {
			continue
		}
		if t.items.Len() == 0 && t.inflight == 0 {
			s.dropLocked(name)
			continue
		}
		// Still holds work: drain under its old parameters, admit nothing
		// new (canonicalLocked routes its name to the default tenant).
		t.removed = true
		order = append(order, name)
	}
	s.cfg = cfg
	s.order = order
	// Raised caps or a larger MaxDepth may unblock waiting workers.
	s.cond.Broadcast()
	return nil
}

func (s *Scheduler) dropLocked(name string) {
	delete(s.ten, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}
