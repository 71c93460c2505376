package engine

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"time"

	"womcpcm/internal/health"
	"womcpcm/internal/metrics"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/sched"
	"womcpcm/internal/tsdb"
)

// startPlanes builds the alert engine, journaling every transition into
// the history store, and starts both planes. Before the first evaluation
// pass, the scheduler's burn-rate windows are warmed from persisted
// counter history and journaled active alerts are reinstalled, so a
// restart neither drops firing incidents nor waits a full SLO window to
// notice them again.
func (m *Manager) startPlanes() {
	alerts, err := health.NewEngine(health.Config{
		Rules:        m.cfg.AlertRules,
		Signals:      m.healthSignals(),
		Exemplars:    m.exemplars,
		Logger:       m.log,
		OnTransition: m.journalAlert,
	})
	if err != nil {
		panic(fmt.Sprintf("engine: invalid Config.AlertRules: %v", err))
	}
	m.alerts = alerts
	backfillSLO(m.sched, m.cfg.History, m.log)
	m.restoreAlerts()
	m.alerts.Start()
	m.cfg.History.Start(m.Collect)
}

// stopPlanes stops alert evaluation, then flushes and closes the history,
// so the last transitions land in the journal. Both steps are idempotent.
func (m *Manager) stopPlanes() {
	m.alerts.Stop()
	if err := m.cfg.History.Close(); err != nil {
		m.log.Warn("history close", "error", err)
	}
}

// healthSignals wires the alert evaluator to this manager: queue
// occupancy, the scheduler's tenants and SLO windows, and the slow-job
// capture count.
func (m *Manager) healthSignals() health.Signals {
	return health.Signals{
		Queue: func() (health.QueueStat, bool) {
			r := m.Readiness()
			return health.QueueStat{Depth: r.QueueDepth, Cap: r.QueueCap, Draining: r.Draining}, true
		},
		Tenants: func() []health.TenantStat {
			views := m.sched.Views()
			out := make([]health.TenantStat, 0, len(views))
			for _, v := range views {
				out = append(out, health.TenantStat{
					Name: v.Name, Depth: v.Depth,
					Sheds: v.Sheds, DeadlineMs: v.DeadlineMs,
				})
			}
			return out
		},
		TenantSLO: m.sched.WindowSLO,
		SlowCaptures: func() (uint64, bool) {
			return m.metrics.ProfilesCaptured.Load(), true
		},
	}
}

// journalAlert persists one alert lifecycle transition into the history's
// alert journal (GET /v1/alerts/history), so alert state survives a
// restart. It runs under the alert engine's lock and never calls back
// into it.
func (m *Manager) journalAlert(at time.Time, to, key string, v health.AlertView) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	m.cfg.History.AppendAlertTransition(at, to, key, b)
}

// restoreAlerts reinstalls the pending and firing alerts the history's
// journal holds from a previous process.
func (m *Manager) restoreAlerts() {
	active := m.cfg.History.ActiveAlerts()
	if len(active) == 0 {
		return
	}
	views := make([]health.AlertView, 0, len(active))
	for _, tr := range active {
		var v health.AlertView
		if err := json.Unmarshal(tr.Alert, &v); err == nil {
			views = append(views, v)
		}
	}
	n := m.alerts.Restore(views)
	m.log.Info("alert state restored from history",
		"journaled", len(active), "restored", n)
}

// backfillSLO warms the scheduler's per-tenant SLO rings from persisted
// counter history: the per-scrape increases of womd_tenant_slo_met_total
// and womd_tenant_dequeued_total over the ring horizon become seeded
// window buckets, so burn-rate rules evaluate real attainment on the
// first pass after a restart instead of a vacuous empty window.
func backfillSLO(s *sched.Scheduler, db *tsdb.DB, logger *slog.Logger) {
	now := time.Now()
	from, to := now.Add(-sched.SLOHorizon).UnixMilli(), now.UnixMilli()
	seeded := 0
	for _, info := range db.Series("womd_tenant_slo_met_total") {
		tenant := info.Labels["tenant"]
		if tenant == "" {
			continue
		}
		match := map[string]string{"tenant": tenant}
		met := counterDeltas(db.RawSamples("womd_tenant_slo_met_total", match, from, to))
		total := counterDeltas(db.RawSamples("womd_tenant_dequeued_total", match, from, to))
		for sec, tot := range total {
			m := met[sec]
			if m > tot {
				m = tot
			}
			if s.SeedSLO(tenant, sec, m, tot) {
				seeded++
			}
		}
	}
	if seeded > 0 {
		logger.Info("slo windows backfilled from history", "buckets", seeded)
	}
}

// counterDeltas turns raw cumulative-counter samples into per-second
// increases attributed to the later sample's second; a reset contributes
// the post-reset value, mirroring the history store's own Inc rule.
func counterDeltas(pts []tsdb.Point) map[int64]uint64 {
	out := make(map[int64]uint64, len(pts))
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		if d <= 0 {
			continue
		}
		out[pts[i].T/1000] += uint64(d + 0.5)
	}
	return out
}

// Collect gathers every family GET /metrics serves, in exposition order:
// service counters, store gauge, per-job progress, then the runtime,
// alert, span, tenant and history-store families. The history
// self-scrape gathers from here, so everything /metrics exposes is also
// everything history records.
func (m *Manager) Collect() []metrics.Family {
	fams := m.metrics.Collect()
	if m.store != nil {
		fams = append(fams, metrics.Gauge("womd_store_results",
			"Distinct results held by the result store.", float64(m.store.Len())))
	}
	progress := metrics.Family{Name: "womd_job_progress", Type: "gauge",
		Help: "Fraction of a running job's records processed."}
	for _, j := range m.Jobs() {
		if p := j.Progress(); p.State == StateRunning && p.Total > 0 {
			progress.Samples = append(progress.Samples, metrics.Sample{
				Labels: metrics.Labels("job", p.ID, "experiment", j.exp.Name), Value: p.Fraction})
		}
	}
	fams = append(fams, progress)
	fams = append(fams, perfmon.CollectRuntime()...)
	fams = append(fams, m.alerts.Collect()...)
	fams = append(fams, m.cfg.Tracer.Collect()...)
	fams = append(fams, m.sched.Collect()...)
	return append(fams, m.cfg.History.Collect()...)
}
