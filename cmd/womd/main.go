// Command womd is the simulation service daemon: it serves the experiment
// registry (internal/sim) over an HTTP/JSON API, executing jobs on a
// bounded worker pool with admission control, per-job timeouts, service
// metrics, and graceful drain on SIGTERM/SIGINT.
//
// With -cache DIR the daemon memoizes results in a persistent
// content-addressed store (internal/resultstore): resubmitting an identical
// job is a disk read instead of a simulation, concurrent identical jobs
// share one execution, and /v1/results, /v1/baselines, and /v1/compare
// expose the cache, pinned baselines, and regression reports.
//
// Jobs wait in one multi-tenant SLO scheduler (internal/sched):
// weighted-fair dequeue across tenant classes, earliest-deadline-first
// within one, and graduated load shedding whose 429s carry a Retry-After
// computed from the observed drain rate. Without -tenants it serves one
// implicit tenant, "default", bounded at -queue jobs: a FIFO that sheds
// with reason queue_full. With -tenants FILE it serves the file's tenant
// classes, and SIGHUP re-reads the file without dropping queued work.
// GET /v1/tenants shows live per-tenant state, and womd_tenant_* families
// appear on /metrics.
//
// Performance observability is on by default: every job carries a host-time
// perf record (wall clock, simulated events/sec, allocation, CPU) surfaced
// in its JobView and as womd_job_* histograms on /metrics, and each scrape
// reads runtime/metrics into womd_runtime_* families (-no-perf disables
// per-job accounting). With
// -profile-dir DIR a monitor goroutine captures CPU+heap pprof profiles
// from jobs that fall behind their peers or near their deadline, served under
// /v1/jobs/{id}/profiles.
//
// Logs are structured (log/slog): every HTTP request gets an id — honoring
// a client-supplied X-Request-ID — that follows its job through queued,
// started, and finished lines, so one grep reconstructs a request's whole
// lifecycle. -debug additionally mounts net/http/pprof under /debug/pprof/.
//
// Job tracing is on by default: every job starts (or, given a
// client traceparent header, continues) a W3C trace whose spans — admission,
// queue wait, execution, result store, SSE fan-out — land in a bounded
// in-process buffer (-trace-spans capacity, -trace-sample head sampling).
// GET /v1/jobs/{id}/trace serves a job's trace as Chrome trace-event JSON
// (openable in Perfetto, rendered by `womtool spans`).
//
// An SLO/health alerting engine (-alerts, on by default) continuously
// evaluates error-budget burn-rate rules over the scheduler's windowed
// attainment, plus structural rules: queue saturation, shed rate, and
// slow-job capture frequency. Alerts move pending → firing → resolved
// with flap damping, carry exemplar trace ids linking into
// /v1/jobs/{id}/trace, and surface on GET /v1/alerts and as womd_alert_*
// families on /metrics; -alert-rules FILE replaces the built-in rules and
// is hot-reloaded on SIGHUP without losing firing state. GET /readyz
// reports routing readiness — 503 while draining or queue-saturated.
//
// Metric history is on by default (-history): an embedded TSDB records
// every metric family /metrics serves each -history-scrape interval
// into Gorilla-compressed chunks, downsamples them through retention tiers
// (-history-retention, default raw 5s for 1h, 1m buckets for 24h, 10m for
// 7d) that preserve min/max/sum/count and reset-aware counter increase,
// and serves range queries on GET /v1/query_range (+ /v1/series
// discovery). With -history-dir DIR sealed chunks, aggregate buckets, and
// every alert lifecycle transition persist to a CRC32-framed segment log:
// after a restart, dashboards keep their past, GET /v1/alerts/history
// still shows the journal, burn-rate windows are backfilled from the
// persisted counters, and journaled firing alerts are reinstalled instead
// of silently dropped. `womtool graph` and `womtool top` render this
// history as inline-SVG dashboards and sparklines.
//
// Usage:
//
//	womd -addr :8080 -workers 4 -queue 64 -timeout 10m -cache /var/lib/womd
//
// Quickstart:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	  -d '{"experiment":"fig5","params":{"requests":20000,"bench":["qsort"]}}'
//	curl -s localhost:8080/v1/jobs/j-000001/result
//	curl -s localhost:8080/v1/jobs/j-000001/progress
//	curl -s localhost:8080/metrics
//
// See DESIGN.md for the API surface and job lifecycle.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/health"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/resultstore"
	"womcpcm/internal/sched"
	"womcpcm/internal/span"
	"womcpcm/internal/tsdb"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "job queue depth of the implicit default tenant; full queue returns HTTP 429")
		tenants    = flag.String("tenants", "", "tenant scheduling config (JSON) replacing the implicit default tenant, hot-reloaded on SIGHUP")
		timeout    = flag.Duration("timeout", 15*time.Minute, "default per-job timeout (0 = none)")
		drain      = flag.Duration("drain", 2*time.Minute, "graceful drain budget on shutdown")
		maxRecords = flag.Int("max-trace-records", 4<<20, "per-upload trace record cap")
		maxTraces  = flag.Int("max-traces", 64, "stored upload cap")
		cacheDir   = flag.String("cache", "", "result-store directory; identical jobs are served from it (empty = caching off)")
		cacheSync  = flag.Bool("cache-sync", false, "fsync the result store after every append")
		debug      = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of logfmt-style text")
		noPerf     = flag.Bool("no-perf", false, "disable per-job host-time accounting (womd_job_events_per_second and friends)")
		profileDir = flag.String("profile-dir", "", "directory for automatic slow-job pprof captures (empty = off)")
		profileMax = flag.Int("profile-max", perfmon.DefaultMaxCaptures, "retained profile capture cap; oldest evicted past it")
		slowFrac   = flag.Float64("slow-fraction", 0.25, "profile a job whose rolling events/sec falls below this fraction of the running jobs' median")
		deadFrac   = flag.Float64("deadline-fraction", 0.9, "profile a job that has consumed this fraction of its timeout")
		monEvery   = flag.Duration("monitor-interval", 15*time.Second, "slow-job monitor pass interval")

		traceSpans  = flag.Int("trace-spans", 4096, "span buffer capacity for distributed job tracing (0 disables tracing)")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of traces recorded, decided once per trace at its head (0 records nothing; ids are still issued)")

		alerts     = flag.Bool("alerts", true, "run the SLO/health alerting engine (GET /v1/alerts, womd_alert_* metrics)")
		alertRules = flag.String("alert-rules", "", "alert rules config (JSON); empty = built-in defaults, hot-reloaded on SIGHUP")

		history       = flag.Bool("history", true, "run the embedded metrics history store (GET /v1/query_range, /v1/series, /v1/alerts/history)")
		historyDir    = flag.String("history-dir", "", "history segment-log directory; empty keeps history in memory only (lost on restart)")
		historyScrape = flag.Duration("history-scrape", 5*time.Second, "history self-scrape interval")
		historyRet    = flag.String("history-retention", "", `history retention tiers as step=retention pairs, e.g. "raw=1h,1m=24h,10m=168h" (empty = built-in defaults)`)
	)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	var store *resultstore.Store
	if *cacheDir != "" {
		var err error
		store, err = resultstore.Open(*cacheDir, resultstore.Options{Sync: *cacheSync})
		if err != nil {
			logger.Error("opening result store", "dir", *cacheDir, "error", err)
			os.Exit(1)
		}
		defer store.Close()
		logger.Info("result store open", "dir", *cacheDir,
			"results", store.Len(), "baselines", len(store.Baselines()))
	}

	var profiles *perfmon.ProfileStore
	if *profileDir != "" {
		var err error
		profiles, err = perfmon.NewProfileStore(*profileDir, *profileMax)
		if err != nil {
			logger.Error("opening profile store", "dir", *profileDir, "error", err)
			os.Exit(1)
		}
		logger.Info("slow-job profiling enabled", "dir", *profileDir,
			"slow_fraction", *slowFrac, "deadline_fraction", *deadFrac)
	}

	// Embedded metrics history: a self-scraped TSDB with retention tiers
	// plus the persisted alert-transition journal. Opened before the engine
	// so the job hot path can thread its (possibly nil) pointer through.
	var histDB *tsdb.DB
	if *history {
		var tiers []tsdb.TierSpec
		if *historyRet != "" {
			var err error
			if tiers, err = tsdb.ParseTiers(*historyRet); err != nil {
				logger.Error("parsing -history-retention", "spec", *historyRet, "error", err)
				os.Exit(2)
			}
		}
		var err error
		histDB, err = tsdb.Open(tsdb.Options{
			Dir:            *historyDir,
			ScrapeInterval: *historyScrape,
			Tiers:          tiers,
			Logger:         logger,
		})
		if err != nil {
			logger.Error("opening metrics history", "dir", *historyDir, "error", err)
			os.Exit(1)
		}
		defer histDB.Close()
		logger.Info("metrics history enabled", "dir", *historyDir,
			"scrape", historyScrape.String(), "retention", *historyRet)
	}

	// Job tracing: one span recorder for the engine's job lifecycle spans.
	var tracer *span.Recorder
	if *traceSpans > 0 {
		const service = "womd"
		rate := *traceSample
		if rate == 0 {
			rate = -1 // flag 0 = record nothing (span.Config treats 0 as "everything")
		}
		tracer = span.New(span.Config{Service: service, Capacity: *traceSpans, SampleRate: rate})
		logger.Info("tracing enabled", "service", service,
			"buffer", *traceSpans, "sample", *traceSample)
	}

	cfg := engine.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultTimeout:   *timeout,
		MaxTraceRecords:  *maxRecords,
		MaxTraces:        *maxTraces,
		Store:            store,
		Logger:           logger,
		DisablePerf:      *noPerf,
		Profiles:         profiles,
		SlowFraction:     *slowFrac,
		DeadlineFraction: *deadFrac,
		MonitorInterval:  *monEvery,
		Tracer:           tracer,
		History:          histDB,
	}
	// Alerting exemplars must be wired before the engine is built so job
	// settles feed them; the health engine itself comes after the
	// manager exists, since its signals read the manager's scheduler.
	var exemplars *health.Exemplars
	if *alerts {
		exemplars = health.NewExemplars()
		cfg.Exemplars = exemplars
	}
	// Tenant classes from -tenants replace the implicit default tenant
	// (engine.Config.Scheduler) and hot-reload on SIGHUP.
	if *tenants != "" {
		scfg, err := sched.LoadConfig(*tenants)
		if err != nil {
			logger.Error("loading tenant config", "path", *tenants, "error", err)
			os.Exit(1)
		}
		scheduler := sched.New(scfg)
		cfg.Scheduler = scheduler
		logger.Info("multi-tenant scheduling enabled", "path", *tenants,
			"tenants", len(scfg.Tenants), "default_tenant", scfg.DefaultTenant,
			"max_depth", scfg.MaxDepth)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				scfg, err := sched.LoadConfig(*tenants)
				if err != nil {
					logger.Error("tenant config reload failed; keeping previous config",
						"path", *tenants, "error", err)
					continue
				}
				if err := scheduler.Reload(scfg); err != nil {
					logger.Error("tenant config reload rejected; keeping previous config",
						"path", *tenants, "error", err)
					continue
				}
				logger.Info("tenant config reloaded", "path", *tenants,
					"tenants", len(scfg.Tenants), "default_tenant", scfg.DefaultTenant)
			}
		}()
	}
	mgr := engine.New(cfg)
	scheduler := mgr.Scheduler()
	// SLO/health alerting: continuous rule evaluation over the engine
	// queue and the scheduler's tenants. GET /v1/alerts serves the alert
	// set, womd_alert_* families land on /metrics, and SIGHUP re-reads
	// -alert-rules without dropping firing state.
	var alertEngine *health.Engine
	if *alerts {
		rules := health.DefaultRules()
		if *alertRules != "" {
			var err error
			rules, err = health.LoadRules(*alertRules)
			if err != nil {
				logger.Error("loading alert rules", "path", *alertRules, "error", err)
				os.Exit(1)
			}
		}
		sig := health.Signals{
			Queue: func() (health.QueueStat, bool) {
				r := mgr.Readiness()
				return health.QueueStat{
					Depth:    r.QueueDepth,
					Cap:      r.QueueCap,
					Draining: r.Draining,
				}, true
			},
			Tenants: func() []health.TenantStat {
				views := scheduler.Views()
				out := make([]health.TenantStat, 0, len(views))
				for _, v := range views {
					out = append(out, health.TenantStat{
						Name: v.Name, Depth: v.Depth,
						Sheds: v.Sheds, DeadlineMs: v.DeadlineMs,
					})
				}
				return out
			},
			TenantSLO: scheduler.WindowSLO,
			SlowCaptures: func() (uint64, bool) {
				return mgr.Metrics().ProfilesCaptured.Load(), true
			},
		}
		hcfg := health.Config{
			Rules:     rules,
			Signals:   sig,
			Exemplars: exemplars,
			Logger:    logger,
		}
		if histDB != nil {
			// Journal every lifecycle transition so alert state survives a
			// restart (GET /v1/alerts/history).
			hcfg.OnTransition = func(at time.Time, to, key string, v health.AlertView) {
				b, err := json.Marshal(v)
				if err != nil {
					return
				}
				histDB.AppendAlertTransition(at, to, key, b)
			}
		}
		var err error
		alertEngine, err = health.NewEngine(hcfg)
		if err != nil {
			logger.Error("building alert engine", "error", err)
			os.Exit(1)
		}
		if histDB != nil {
			// Warm the burn-rate windows from persisted counter history and
			// reinstall journaled active alerts before the first evaluation
			// pass, so a restart neither drops firing incidents nor waits a
			// full SLO window to notice them again.
			backfillSLO(scheduler, histDB, logger)
			if active := histDB.ActiveAlerts(); len(active) > 0 {
				views := make([]health.AlertView, 0, len(active))
				for _, tr := range active {
					var v health.AlertView
					if err := json.Unmarshal(tr.Alert, &v); err == nil {
						views = append(views, v)
					}
				}
				n := alertEngine.Restore(views)
				logger.Info("alert state restored from history",
					"journaled", len(active), "restored", n)
			}
		}
		alertEngine.Start()
		defer alertEngine.Stop()
		logger.Info("alerting enabled", "rules", len(rules.Rules),
			"interval", rules.Interval().String(), "rules_path", *alertRules)
		if *alertRules != "" {
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for range hup {
					rules, err := health.LoadRules(*alertRules)
					if err != nil {
						logger.Error("alert rules reload failed; keeping previous rules",
							"path", *alertRules, "error", err)
						continue
					}
					if err := alertEngine.Reload(rules); err != nil {
						logger.Error("alert rules reload rejected; keeping previous rules",
							"path", *alertRules, "error", err)
						continue
					}
					logger.Info("alert rules reloaded", "path", *alertRules,
						"rules", len(rules.Rules))
				}
			}()
		}
	}

	// Collectors register in /metrics order: runtime, alerts, spans,
	// tenants, history.
	opts := []engine.ServerOption{
		engine.WithLogger(logger),
		engine.WithCollector(perfmon.CollectRuntime),
	}
	if alertEngine != nil {
		opts = append(opts,
			engine.WithAlerts(alertEngine),
			engine.WithCollector(alertEngine.Collect))
	}
	if tracer != nil {
		opts = append(opts, engine.WithCollector(tracer.Collect))
	}
	opts = append(opts, engine.WithCollector(scheduler.Collect))
	if histDB != nil {
		opts = append(opts,
			engine.WithHistory(histDB),
			engine.WithCollector(histDB.Collect))
	}
	if *debug {
		opts = append(opts, engine.WithDebug())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	apiServer := engine.NewServer(mgr, opts...)
	// History records the server's own collected families — service
	// counters plus every collector (alerts, the history store's own
	// gauges) — so everything /metrics shows is also everything history
	// records.
	histDB.Start(apiServer.Collect)
	srv := &http.Server{
		Addr:        *addr,
		Handler:     apiServer,
		ReadTimeout: 5 * time.Minute, // trace uploads can be large
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// in-flight jobs complete within the drain budget. The before/after
	// metrics delta reports how many jobs the drain actually finished.
	before := mgr.Metrics().Snapshot()
	logger.Info("signal received; draining", "budget", drain.String(),
		"jobs_running", before.JobsRunning, "queue_depth", before.QueueDepth)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	drainErr := mgr.Shutdown(drainCtx)
	after := mgr.Metrics().Snapshot()
	logger.Info("drain finished",
		"jobs_completed", after.JobsCompleted-before.JobsCompleted,
		"jobs_failed", after.JobsFailed-before.JobsFailed,
		"jobs_canceled", after.JobsCanceled-before.JobsCanceled,
		"uptime_s", int64(after.UptimeSeconds))
	if drainErr != nil {
		// os.Exit skips the deferred close; an aborted drain must not
		// also cost the metric history its unflushed tail.
		if err := histDB.Close(); err != nil {
			logger.Warn("history close", "error", err)
		}
		if errors.Is(drainErr, context.DeadlineExceeded) {
			logger.Error("drain budget exceeded; running jobs aborted")
			os.Exit(1)
		}
		logger.Error("drain", "error", drainErr)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// backfillSLO warms the scheduler's per-tenant SLO rings from persisted
// counter history: the per-scrape increases of womd_tenant_slo_met_total
// and womd_tenant_dequeued_total over the ring horizon become seeded
// window buckets, so burn-rate rules evaluate real attainment on the
// first pass after a restart instead of a vacuous empty window.
func backfillSLO(s *sched.Scheduler, db *tsdb.DB, logger *slog.Logger) {
	const horizon = 34 * time.Minute // ≥ the ring's 2048-second reach
	now := time.Now()
	from, to := now.Add(-horizon).UnixMilli(), now.UnixMilli()
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
