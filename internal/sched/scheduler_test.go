package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func threeTenants() Config {
	return Config{
		Tenants: []TenantClass{
			{Name: "interactive", Weight: 8, Priority: 0, DeadlineMs: 500},
			{Name: "batch", Weight: 3, Priority: 1, DeadlineMs: 5000},
			{Name: "best-effort", Weight: 1, Priority: 2},
		},
		DefaultTenant: "best-effort",
		MaxDepth:      90,
	}
}

// drainN dequeues n items without blocking the test forever on a bug.
func drainN(t *testing.T, s *Scheduler, n int) []Item {
	t.Helper()
	out := make([]Item, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			it, ok := s.Dequeue()
			if !ok {
				return
			}
			out = append(out, it)
			s.Done(it.Tenant)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("dequeue stalled after %d of %d items", len(out), n)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"no tenants", `{"tenants":[]}`},
		{"dup", `{"tenants":[{"name":"a"},{"name":"a"}]}`},
		{"empty name", `{"tenants":[{"name":""}]}`},
		{"bad default", `{"tenants":[{"name":"a"}],"default_tenant":"b"}`},
		{"unknown field", `{"tenants":[{"name":"a","wieght":3}]}`},
		{"negative weight", `{"tenants":[{"name":"a","weight":-1}]}`},
	}
	for _, c := range cases {
		if _, err := ParseConfig([]byte(c.json)); err == nil {
			t.Errorf("%s: ParseConfig accepted %s", c.name, c.json)
		}
	}
	cfg, err := ParseConfig([]byte(`{"tenants":[{"name":"a"},{"name":"b","weight":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DefaultTenant != "a" {
		t.Errorf("default tenant = %q, want first tenant", cfg.DefaultTenant)
	}
	if cfg.MaxDepth != DefaultMaxDepth {
		t.Errorf("MaxDepth = %d, want default %d", cfg.MaxDepth, DefaultMaxDepth)
	}
	if cfg.Tenants[0].Weight != 1 {
		t.Errorf("zero weight not defaulted to 1")
	}
}

// TestEDFWithinTenant: items enqueued with out-of-order deadlines dequeue
// earliest-deadline-first; items without deadlines come last in admission
// order.
func TestEDFWithinTenant(t *testing.T) {
	s := New(Config{Tenants: []TenantClass{{Name: "only"}}, MaxDepth: 100})
	base := time.Now()
	deadlines := []int{50, 10, 40, 20, 30}
	for i, ms := range deadlines {
		_, err := s.Enqueue(Item{
			Tenant:   "only",
			Deadline: base.Add(time.Duration(ms) * time.Millisecond),
			Payload:  i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Two deadline-free items after the dated ones.
	s.Enqueue(Item{Tenant: "only", Payload: "x"})
	s.Enqueue(Item{Tenant: "only", Payload: "y"})

	got := drainN(t, s, 7)
	wantOrder := []any{1, 3, 4, 2, 0, "x", "y"}
	for i, it := range got {
		if it.Payload != wantOrder[i] {
			t.Fatalf("dequeue %d = %v, want %v (EDF order violated)", i, it.Payload, wantOrder[i])
		}
	}
}

// TestDeadlineFromBudget: the tenant's deadline budget is measured from
// the item's admission time, so an older admission jumps ahead of fresher
// work.
func TestDeadlineFromBudget(t *testing.T) {
	s := New(Config{
		Tenants:  []TenantClass{{Name: "a", DeadlineMs: 1000}},
		MaxDepth: 10,
	})
	now := time.Now()
	s.Enqueue(Item{Tenant: "a", AdmittedAt: now, Payload: "fresh"})
	s.Enqueue(Item{Tenant: "a", AdmittedAt: now.Add(-5 * time.Second), Payload: "older"})
	got := drainN(t, s, 2)
	if got[0].Payload != "older" {
		t.Fatalf("first dequeue = %v; the job with the older admission must run first", got[0].Payload)
	}
}

// TestNoStarvation is the property-style fairness test: under a sustained
// backlog from a heavy high-priority tenant, a weight-1 tenant still
// receives within rounding of its weight share in every prefix of the
// dequeue sequence.
func TestNoStarvation(t *testing.T) {
	s := New(Config{
		Tenants: []TenantClass{
			{Name: "heavy", Weight: 9, Priority: 0},
			{Name: "light", Weight: 1, Priority: 2},
		},
		MaxDepth: 5000,
	})
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := s.Enqueue(Item{Tenant: "heavy", Payload: i}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Enqueue(Item{Tenant: "light", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := drainN(t, s, 2*n)
	light := 0
	for i, it := range got {
		if it.Tenant == "light" {
			light++
		}
		// Prefix property: after k dequeues, light has at least
		// floor(k/10) - 1 of them (its 1/10 share, one slot of slack).
		if want := (i+1)/10 - 1; light < want {
			t.Fatalf("after %d dequeues light got %d, want ≥ %d — starvation", i+1, light, want)
		}
	}
	if light != n {
		t.Fatalf("light drained %d of %d", light, n)
	}
	// And heavy must dominate: roughly 9 heavy per light in the first
	// half, i.e. heavy is not starved by the check above either.
	firstHalf := got[:n]
	heavy := 0
	for _, it := range firstHalf {
		if it.Tenant == "heavy" {
			heavy++
		}
	}
	if heavy < 8*n/10 {
		t.Fatalf("heavy got %d of first %d dequeues, want ≥ %d (weight 9/10)", heavy, n, 8*n/10)
	}
}

// TestGraduatedShed: as the queue fills, the lowest-priority tenant sheds
// first, the middle next, the top only at the full bound, with
// machine-readable reasons and a Retry-After.
func TestGraduatedShed(t *testing.T) {
	s := New(threeTenants()) // MaxDepth 90 → thresholds 90 / 60 / 30
	fill := func(tenant string, n int) (admitted, shed int) {
		for i := 0; i < n; i++ {
			if _, err := s.Enqueue(Item{Tenant: tenant}); err != nil {
				shed++
			} else {
				admitted++
			}
		}
		return
	}
	// Fill to just below the best-effort threshold with interactive work.
	if adm, sh := fill("interactive", 29); adm != 29 || sh != 0 {
		t.Fatalf("pre-fill: admitted %d shed %d", adm, sh)
	}
	if _, err := s.Enqueue(Item{Tenant: "best-effort"}); err != nil {
		t.Fatalf("best-effort at depth 29 shed early: %v", err)
	}
	// Depth 30: best-effort sheds, batch and interactive do not.
	_, err := s.Enqueue(Item{Tenant: "best-effort"})
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("best-effort at threshold: err = %v, want ShedError", err)
	}
	if se.Reason != "priority_shed" || se.Tenant != "best-effort" {
		t.Fatalf("shed = %+v, want priority_shed of best-effort", se)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("shed without Retry-After: %+v", se)
	}
	if _, err := s.Enqueue(Item{Tenant: "batch"}); err != nil {
		t.Fatalf("batch shed at depth 30: %v", err)
	}
	// Fill to the batch threshold.
	fill("interactive", 29) // depth 60
	if _, err := s.Enqueue(Item{Tenant: "batch"}); !errors.As(err, &se) || se.Reason != "priority_shed" {
		t.Fatalf("batch at depth 60: err = %v, want priority_shed", err)
	}
	// Interactive sheds only at the global bound, with reason queue_full.
	if adm, _ := fill("interactive", 30); adm != 30 {
		t.Fatalf("interactive blocked before the global bound (admitted %d of 30)", adm)
	}
	if _, err := s.Enqueue(Item{Tenant: "interactive"}); !errors.As(err, &se) || se.Reason != "queue_full" {
		t.Fatalf("interactive at full queue: err = %v, want queue_full", err)
	}
	views := s.Views()
	for _, v := range views {
		if v.Name == "best-effort" && v.ShedReasons["priority_shed"] == 0 {
			t.Errorf("best-effort view missing shed reason: %+v", v)
		}
	}
}

// TestTenantDepthCap: a per-tenant queue_depth sheds that tenant alone.
func TestTenantDepthCap(t *testing.T) {
	s := New(Config{
		Tenants: []TenantClass{
			{Name: "capped", QueueDepth: 2},
			{Name: "free"},
		},
		MaxDepth: 100,
	})
	s.Enqueue(Item{Tenant: "capped"})
	s.Enqueue(Item{Tenant: "capped"})
	_, err := s.Enqueue(Item{Tenant: "capped"})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "tenant_queue_full" {
		t.Fatalf("capped tenant third enqueue: %v, want tenant_queue_full", err)
	}
	if _, err := s.Enqueue(Item{Tenant: "free"}); err != nil {
		t.Fatalf("uncapped tenant blocked by sibling cap: %v", err)
	}
}

// TestMaxInflight: a tenant at its in-flight cap yields the worker to
// other tenants until Done frees a slot.
func TestMaxInflight(t *testing.T) {
	s := New(Config{
		Tenants: []TenantClass{
			{Name: "capped", Weight: 100, MaxInflight: 1},
			{Name: "other", Weight: 1},
		},
		MaxDepth: 100,
	})
	s.Enqueue(Item{Tenant: "capped", Payload: "c1"})
	s.Enqueue(Item{Tenant: "capped", Payload: "c2"})
	s.Enqueue(Item{Tenant: "other", Payload: "o1"})

	it1, _ := s.Dequeue()
	if it1.Payload != "c1" {
		t.Fatalf("first dequeue = %v, want c1 (weight 100)", it1.Payload)
	}
	// capped is at its in-flight limit: the next dequeue must skip c2.
	it2, _ := s.Dequeue()
	if it2.Payload != "o1" {
		t.Fatalf("second dequeue = %v, want o1 (capped tenant at max_inflight)", it2.Payload)
	}
	s.Done("capped")
	it3, _ := s.Dequeue()
	if it3.Payload != "c2" {
		t.Fatalf("after Done, dequeue = %v, want c2", it3.Payload)
	}
}

// TestCloseDrains: Close stops admissions but queued items drain before
// Dequeue reports closed.
func TestCloseDrains(t *testing.T) {
	s := New(Config{Tenants: []TenantClass{{Name: "a"}}, MaxDepth: 10})
	s.Enqueue(Item{Tenant: "a", Payload: 1})
	s.Enqueue(Item{Tenant: "a", Payload: 2})
	s.Close()
	if _, err := s.Enqueue(Item{Tenant: "a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	if it, ok := s.Dequeue(); !ok || it.Payload != 1 {
		t.Fatalf("first drain = %v/%v", it.Payload, ok)
	}
	if it, ok := s.Dequeue(); !ok || it.Payload != 2 {
		t.Fatalf("second drain = %v/%v", it.Payload, ok)
	}
	if _, ok := s.Dequeue(); ok {
		t.Fatal("Dequeue after drain still reports items")
	}
}

// TestUnknownTenantDefaults: unknown and empty tenant names land on the
// default tenant, and the canonical name is returned for Done pairing.
func TestUnknownTenantDefaults(t *testing.T) {
	s := New(threeTenants())
	name, err := s.Enqueue(Item{Tenant: "no-such"})
	if err != nil || name != "best-effort" {
		t.Fatalf("unknown tenant → (%q, %v), want best-effort", name, err)
	}
	name, _ = s.Enqueue(Item{})
	if name != "best-effort" {
		t.Fatalf("empty tenant → %q, want best-effort", name)
	}
	if got := s.Canonical("interactive"); got != "interactive" {
		t.Fatalf("Canonical(interactive) = %q", got)
	}
}

// TestReload: classes update in place keeping counters, removed tenants
// drain, new tenants join, and a bad config is rejected atomically.
func TestReload(t *testing.T) {
	s := New(threeTenants())
	s.Enqueue(Item{Tenant: "batch", Payload: "queued"})
	if err := s.Reload(Config{Tenants: []TenantClass{{Name: "x", Weight: -1}}}); err == nil {
		t.Fatal("Reload accepted invalid config")
	}
	err := s.Reload(Config{
		Tenants: []TenantClass{
			{Name: "interactive", Weight: 4, Priority: 0},
			{Name: "newbie", Weight: 2, Priority: 1},
		},
		MaxDepth: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// batch was removed but still holds work: it must drain.
	views := s.Views()
	var sawBatch, sawNewbie bool
	for _, v := range views {
		if v.Name == "batch" {
			sawBatch = true
			if !v.Removed || v.Depth != 1 {
				t.Errorf("batch view after removal: %+v", v)
			}
		}
		if v.Name == "newbie" {
			sawNewbie = true
		}
	}
	if !sawBatch || !sawNewbie {
		t.Fatalf("views after reload missing tenants: %+v", views)
	}
	// New submissions under the removed name land on the new default.
	name, err := s.Enqueue(Item{Tenant: "batch"})
	if err != nil || name != "interactive" {
		t.Fatalf("removed tenant enqueue → (%q, %v), want default interactive", name, err)
	}
	got := drainN(t, s, 2)
	if len(got) != 2 {
		t.Fatalf("drained %d of 2 after reload", len(got))
	}
	// Fully drained removed tenant disappears from the views.
	for _, v := range s.Views() {
		if v.Name == "batch" {
			t.Fatalf("batch still present after draining: %+v", v)
		}
	}
}

// TestSLOAccounting: a job dequeued past its deadline is counted as an SLO
// miss; within it, as met.
func TestSLOAccounting(t *testing.T) {
	s := New(Config{
		Tenants:  []TenantClass{{Name: "a", DeadlineMs: 100}},
		MaxDepth: 10,
	})
	clock := time.Now()
	s.now = func() time.Time { return clock }
	s.Enqueue(Item{Tenant: "a"})
	s.Enqueue(Item{Tenant: "a"})
	// First dequeue inside the budget, second long past it.
	clock = clock.Add(50 * time.Millisecond)
	s.Dequeue()
	clock = clock.Add(500 * time.Millisecond)
	s.Dequeue()
	v := s.Views()[0]
	if v.Dequeues != 2 || v.SLOMet != 1 {
		t.Fatalf("dequeues=%d sloMet=%d, want 2/1", v.Dequeues, v.SLOMet)
	}
	if v.SLOAttainment != 0.5 {
		t.Fatalf("attainment = %g, want 0.5", v.SLOAttainment)
	}
	if v.QueueWaitP95Ms <= 0 {
		t.Fatalf("queue wait quantiles not recorded: %+v", v)
	}
}

// TestRetryAfterTracksDrainRate: with an observed drain rate, the
// Retry-After scales with the backlog excess.
func TestRetryAfterTracksDrainRate(t *testing.T) {
	var r rateTracker
	if got := r.RetryAfter(10); got != minRetryAfter {
		t.Fatalf("cold tracker RetryAfter = %v, want %v", got, minRetryAfter)
	}
	base := time.Now()
	// One dequeue every 100ms.
	for i := 0; i < 20; i++ {
		r.Observe(base.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	// 30 items of excess at ~100ms each ≈ 3s.
	got := r.RetryAfter(30)
	if got < 2*time.Second || got > 5*time.Second {
		t.Fatalf("RetryAfter(30) = %v, want ≈3s", got)
	}
	if got := r.RetryAfter(100000); got != maxRetryAfter {
		t.Fatalf("huge excess = %v, want clamp %v", got, maxRetryAfter)
	}
}

// TestConcurrentChurn hammers the scheduler from many goroutines under
// -race: admissions, dequeues, dones, views, and a reload.
func TestConcurrentChurn(t *testing.T) {
	s := New(threeTenants())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	tenants := []string{"interactive", "batch", "best-effort", "unknown"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Enqueue(Item{Tenant: tenants[(i+j)%len(tenants)], Payload: j})
			}
		}(i)
	}
	var consumed sync.WaitGroup
	for i := 0; i < 3; i++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				it, ok := s.Dequeue()
				if !ok {
					return
				}
				s.Done(it.Tenant)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	s.Reload(threeTenants())
	s.Views()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Close()
	consumed.Wait()
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	s := New(threeTenants())
	names := []string{"interactive", "batch", "best-effort"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Enqueue(Item{Tenant: names[i%3], Payload: i}); err != nil {
			b.Fatal(err)
		}
		it, _ := s.Dequeue()
		s.Done(it.Tenant)
	}
	_ = fmt.Sprint() // keep fmt imported if otherwise unused
}
