package sched

import "womcpcm/internal/metrics"

// TenantView is one tenant's live state in GET /v1/tenants: its configured
// class, queue occupancy, admission counters, and SLO attainment.
type TenantView struct {
	Name        string `json:"name"`
	Weight      int    `json:"weight"`
	Priority    int    `json:"priority"`
	MaxInflight int    `json:"max_inflight,omitempty"`
	DeadlineMs  int64  `json:"deadline_ms,omitempty"`
	// ShedAtDepth is the total queued depth at which this tenant's
	// submissions are shed (the graduated threshold).
	ShedAtDepth int `json:"shed_at_depth"`
	// Removed marks a tenant dropped by a config reload that is still
	// draining queued or running work.
	Removed bool `json:"removed,omitempty"`

	Depth    int    `json:"depth"`
	Inflight int    `json:"inflight"`
	Admits   uint64 `json:"admits"`
	Sheds    uint64 `json:"sheds"`
	Dequeues uint64 `json:"dequeues"`
	// ShedReasons breaks Sheds down by reason.
	ShedReasons map[string]uint64 `json:"shed_reasons,omitempty"`

	// SLOMet counts dequeued jobs that started within their deadline;
	// SLOAttainment is SLOMet/Dequeues (1 when nothing has been dequeued —
	// an SLO with no traffic is vacuously met).
	SLOMet        uint64  `json:"slo_met"`
	SLOAttainment float64 `json:"slo_attainment"`

	// Windowed attainment over the trailing 1m/5m/30m of dequeues — the
	// recent signal the lifetime ratio above flattens out of, and the
	// burn-rate input for internal/health. 1 when the window saw no
	// dequeues.
	SLOAttainment1m  float64 `json:"slo_attainment_1m"`
	SLOAttainment5m  float64 `json:"slo_attainment_5m"`
	SLOAttainment30m float64 `json:"slo_attainment_30m"`

	// Queue-wait distribution observed at dequeue, milliseconds.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95Ms float64 `json:"queue_wait_p95_ms"`
	QueueWaitMaxMs float64 `json:"queue_wait_max_ms"`
}

// Views snapshots every tenant in configuration order (removed tenants
// last).
func (s *Scheduler) Views() []TenantView {
	s.mu.Lock()
	defer s.mu.Unlock()
	nowSec := s.now().Unix()
	out := make([]TenantView, 0, len(s.order))
	for _, name := range s.order {
		t := s.ten[name]
		v := TenantView{
			Name:        t.cls.Name,
			Weight:      t.cls.Weight,
			Priority:    t.cls.Priority,
			MaxInflight: t.cls.MaxInflight,
			DeadlineMs:  t.cls.DeadlineMs,
			ShedAtDepth: t.shedAt,
			Removed:     t.removed,
			Depth:       t.items.Len(),
			Inflight:    t.inflight,
			Admits:      t.admits,
			Sheds:       t.sheds,
			Dequeues:    t.dequeues,
			SLOMet:      t.sloMet,
		}
		if len(t.shedWhy) > 0 {
			v.ShedReasons = make(map[string]uint64, len(t.shedWhy))
			for k, n := range t.shedWhy {
				v.ShedReasons[k] = n
			}
		}
		if t.dequeues > 0 {
			v.SLOAttainment = float64(t.sloMet) / float64(t.dequeues)
		} else {
			v.SLOAttainment = 1
		}
		v.SLOAttainment1m = t.slo.attainment(nowSec, 60)
		v.SLOAttainment5m = t.slo.attainment(nowSec, 300)
		v.SLOAttainment30m = t.slo.attainment(nowSec, 1800)
		snap := t.wait.Snapshot()
		if snap.Count > 0 {
			v.QueueWaitP50Ms = float64(t.wait.Quantile(0.5)) / 1e6
			v.QueueWaitP95Ms = float64(t.wait.Quantile(0.95)) / 1e6
			v.QueueWaitMaxMs = float64(t.wait.Quantile(1)) / 1e6
		}
		out = append(out, v)
	}
	return out
}

// Collect returns the womd_tenant_* metric families, wired into
// GET /metrics via engine.Manager.Collect.
func (s *Scheduler) Collect() []metrics.Family {
	fams := []metrics.Family{
		{Name: "womd_tenant_depth", Help: "Queued jobs per tenant.", Type: "gauge"},
		{Name: "womd_tenant_inflight", Help: "Executing jobs per tenant.", Type: "gauge"},
		{Name: "womd_tenant_admitted_total", Help: "Jobs admitted per tenant.", Type: "counter"},
		{Name: "womd_tenant_dequeued_total", Help: "Jobs handed to workers per tenant.", Type: "counter"},
		{Name: "womd_tenant_slo_met_total", Help: "Dequeued jobs that started within their deadline.", Type: "counter"},
		{Name: "womd_tenant_slo_attainment", Help: "Fraction of dequeued jobs that met their deadline.", Type: "gauge"},
		{Name: "womd_tenant_shed_at_depth", Help: "Total queued depth at which this tenant sheds.", Type: "gauge"},
		{Name: "womd_tenant_slo_attainment_window", Help: "Fraction of dequeues meeting their deadline over a trailing window.", Type: "gauge"},
		{Name: "womd_tenant_shed_total", Help: "Jobs shed per tenant by reason.", Type: "counter"},
		{Name: "womd_tenant_queue_wait_p95_seconds", Help: "Per-tenant p95 queue wait observed at dequeue.", Type: "gauge"},
	}
	for _, v := range s.Views() {
		add := func(fam int, value float64, kv ...string) {
			fams[fam].Samples = append(fams[fam].Samples, metrics.Sample{
				Labels: metrics.Labels(append([]string{"tenant", v.Name}, kv...)...), Value: value})
		}
		add(0, float64(v.Depth))
		add(1, float64(v.Inflight))
		add(2, float64(v.Admits))
		add(3, float64(v.Dequeues))
		add(4, float64(v.SLOMet))
		add(5, v.SLOAttainment)
		add(6, float64(v.ShedAtDepth))
		add(7, v.SLOAttainment1m, "window", "1m")
		add(7, v.SLOAttainment5m, "window", "5m")
		add(7, v.SLOAttainment30m, "window", "30m")
		// Shed counts carry a reason label; a zero "queue_full" sample for
		// tenants with no sheds gives every tenant a series.
		if len(v.ShedReasons) == 0 {
			add(8, 0, "reason", "queue_full")
		}
		for _, reason := range []string{"queue_full", "priority_shed", "tenant_queue_full"} {
			if n, ok := v.ShedReasons[reason]; ok {
				add(8, float64(n), "reason", reason)
			}
		}
		add(9, v.QueueWaitP95Ms/1e3)
	}
	return fams
}
