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
// Every womd runs the same observability planes; none has an off switch:
//
//   - Performance accounting: every job carries a host-time perf record
//     (wall clock, simulated events/sec, allocation, CPU) surfaced in its
//     JobView and as womd_job_* histograms on /metrics, and each scrape
//     reads runtime/metrics into womd_runtime_* families. With
//     -profile-dir DIR a monitor goroutine captures CPU+heap pprof
//     profiles from jobs that fall behind their peers or near their
//     deadline, served under /v1/jobs/{id}/profiles.
//   - Job tracing: every job starts (or, given a client traceparent
//     header, continues) a W3C trace whose spans — admission, queue wait,
//     execution, result store, SSE fan-out — land in a bounded in-process
//     ring. GET /v1/jobs/{id}/trace serves a job's trace as Chrome
//     trace-event JSON (openable in Perfetto, rendered by `womtool spans`).
//   - Alerting: an SLO/health engine continuously evaluates error-budget
//     burn-rate rules over the scheduler's windowed attainment, plus
//     structural rules: queue saturation, shed rate, and slow-job capture
//     frequency. Alerts move pending → firing → resolved with flap
//     damping, carry exemplar trace ids linking into /v1/jobs/{id}/trace,
//     and surface on GET /v1/alerts and as womd_alert_* families on
//     /metrics; -alert-rules FILE replaces the built-in rules and is
//     hot-reloaded on SIGHUP without losing firing state. GET /readyz
//     reports routing readiness — 503 while draining or queue-saturated.
//   - Metric history: an embedded TSDB records every metric family
//     /metrics serves each -history-scrape interval into
//     Gorilla-compressed chunks, downsamples them through retention tiers
//     (-history-retention, default raw 5s for 1h, 1m buckets for 24h, 10m
//     for 7d) that preserve min/max/sum/count and reset-aware counter
//     increase, and serves range queries on GET /v1/query_range (+
//     /v1/series discovery). With -history-dir DIR sealed chunks,
//     aggregate buckets, and every alert lifecycle transition persist to a
//     CRC32-framed segment log: after a restart, dashboards keep their
//     past, GET /v1/alerts/history still shows the journal, burn-rate
//     windows are backfilled from the persisted counters, and journaled
//     firing alerts are reinstalled instead of silently dropped. `womtool
//     graph` and `womtool top` render this history as inline-SVG
//     dashboards and sparklines.
//
// Logs are structured (log/slog): every HTTP request gets an id — honoring
// a client-supplied X-Request-ID — that follows its job through queued,
// started, and finished lines, so one grep reconstructs a request's whole
// lifecycle. -debug additionally mounts net/http/pprof under /debug/pprof/.
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
	"womcpcm/internal/tsdb"
)

// options holds womd's command-line settings.
type options struct {
	addr, tenants, cacheDir, profileDir, alertRules string
	historyDir, historyRet                          string
	workers, queue, maxRecords, maxTraces           int
	profileMax                                      int
	timeout, drain, historyScrape                   time.Duration
	cacheSync, debug, logJSON                       bool
}

// newFlagSet registers every womd flag into o. README.md's flag table
// documents each one; TestFlagsDocumented keeps the two in step.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("womd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (default GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 64, "job queue depth of the implicit default tenant; full queue returns HTTP 429")
	fs.StringVar(&o.tenants, "tenants", "", "tenant scheduling config (JSON) replacing the implicit default tenant, hot-reloaded on SIGHUP")
	fs.DurationVar(&o.timeout, "timeout", 15*time.Minute, "default per-job timeout (0 = none)")
	fs.DurationVar(&o.drain, "drain", 2*time.Minute, "graceful drain budget on shutdown")
	fs.IntVar(&o.maxRecords, "max-trace-records", 4<<20, "per-upload trace record cap")
	fs.IntVar(&o.maxTraces, "max-traces", 64, "stored upload cap")
	fs.StringVar(&o.cacheDir, "cache", "", "result-store directory; identical jobs are served from it (empty = caching off)")
	fs.BoolVar(&o.cacheSync, "cache-sync", false, "fsync the result store after every append")
	fs.BoolVar(&o.debug, "debug", false, "mount net/http/pprof under /debug/pprof/")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit logs as JSON instead of logfmt-style text")
	fs.StringVar(&o.profileDir, "profile-dir", "", "directory for automatic slow-job pprof captures (empty = off)")
	fs.IntVar(&o.profileMax, "profile-max", perfmon.DefaultMaxCaptures, "retained profile capture cap; oldest evicted past it")
	fs.StringVar(&o.alertRules, "alert-rules", "", "alert rules config (JSON); empty = built-in defaults, hot-reloaded on SIGHUP")
	fs.StringVar(&o.historyDir, "history-dir", "", "history segment-log directory; empty keeps history in memory only (lost on restart)")
	fs.DurationVar(&o.historyScrape, "history-scrape", 5*time.Second, "history self-scrape interval")
	fs.StringVar(&o.historyRet, "history-retention", "", `history retention tiers as step=retention pairs, e.g. "raw=1h,1m=24h,10m=168h" (empty = built-in defaults)`)
	return fs
}

func main() {
	var o options
	newFlagSet(&o).Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	var store *resultstore.Store
	if o.cacheDir != "" {
		var err error
		store, err = resultstore.Open(o.cacheDir, resultstore.Options{Sync: o.cacheSync})
		if err != nil {
			logger.Error("opening result store", "dir", o.cacheDir, "error", err)
			os.Exit(1)
		}
		defer store.Close()
		logger.Info("result store open", "dir", o.cacheDir,
			"results", store.Len(), "baselines", len(store.Baselines()))
	}

	var profiles *perfmon.ProfileStore
	if o.profileDir != "" {
		var err error
		profiles, err = perfmon.NewProfileStore(o.profileDir, o.profileMax)
		if err != nil {
			logger.Error("opening profile store", "dir", o.profileDir, "error", err)
			os.Exit(1)
		}
		logger.Info("slow-job profiling enabled", "dir", o.profileDir)
	}

	var rules health.RulesConfig // zero = built-in defaults
	if o.alertRules != "" {
		var err error
		if rules, err = health.LoadRules(o.alertRules); err != nil {
			logger.Error("loading alert rules", "path", o.alertRules, "error", err)
			os.Exit(1)
		}
	}

	// Metric history: a self-scraped TSDB with retention tiers plus the
	// persisted alert-transition journal. The manager scrapes it, and
	// closes it when it drains.
	var tiers []tsdb.TierSpec
	if o.historyRet != "" {
		var err error
		if tiers, err = tsdb.ParseTiers(o.historyRet); err != nil {
			logger.Error("parsing -history-retention", "spec", o.historyRet, "error", err)
			os.Exit(2)
		}
	}
	histDB, err := tsdb.Open(tsdb.Options{
		Dir:            o.historyDir,
		ScrapeInterval: o.historyScrape,
		Tiers:          tiers,
		Logger:         logger,
	})
	if err != nil {
		logger.Error("opening metrics history", "dir", o.historyDir, "error", err)
		os.Exit(1)
	}
	logger.Info("metrics history open", "dir", o.historyDir,
		"scrape", o.historyScrape.String(), "retention", o.historyRet)

	cfg := engine.Config{
		Workers:         o.workers,
		QueueDepth:      o.queue,
		DefaultTimeout:  o.timeout,
		MaxTraceRecords: o.maxRecords,
		MaxTraces:       o.maxTraces,
		Store:           store,
		Logger:          logger,
		Profiles:        profiles,
		AlertRules:      rules,
		History:         histDB,
	}
	// Tenant classes from -tenants replace the implicit default tenant
	// (engine.Config.Scheduler) and hot-reload on SIGHUP.
	if o.tenants != "" {
		scfg, err := sched.LoadConfig(o.tenants)
		if err != nil {
			logger.Error("loading tenant config", "path", o.tenants, "error", err)
			os.Exit(1)
		}
		scheduler := sched.New(scfg)
		cfg.Scheduler = scheduler
		logger.Info("multi-tenant scheduling enabled", "path", o.tenants,
			"tenants", len(scfg.Tenants), "default_tenant", scfg.DefaultTenant,
			"max_depth", scfg.MaxDepth)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				scfg, err := sched.LoadConfig(o.tenants)
				if err != nil {
					logger.Error("tenant config reload failed; keeping previous config",
						"path", o.tenants, "error", err)
					continue
				}
				if err := scheduler.Reload(scfg); err != nil {
					logger.Error("tenant config reload rejected; keeping previous config",
						"path", o.tenants, "error", err)
					continue
				}
				logger.Info("tenant config reloaded", "path", o.tenants,
					"tenants", len(scfg.Tenants), "default_tenant", scfg.DefaultTenant)
			}
		}()
	}
	mgr := engine.New(cfg)
	// SIGHUP re-reads -alert-rules without dropping firing state.
	if o.alertRules != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				rules, err := health.LoadRules(o.alertRules)
				if err != nil {
					logger.Error("alert rules reload failed; keeping previous rules",
						"path", o.alertRules, "error", err)
					continue
				}
				if err := mgr.Alerts().Reload(rules); err != nil {
					logger.Error("alert rules reload rejected; keeping previous rules",
						"path", o.alertRules, "error", err)
					continue
				}
				logger.Info("alert rules reloaded", "path", o.alertRules,
					"rules", len(rules.Rules))
			}
		}()
	}

	opts := []engine.ServerOption{engine.WithLogger(logger)}
	if o.debug {
		opts = append(opts, engine.WithDebug())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{
		Addr:        o.addr,
		Handler:     engine.NewServer(mgr, opts...),
		ReadTimeout: 5 * time.Minute, // trace uploads can be large
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", o.addr)
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
	logger.Info("signal received; draining", "budget", o.drain.String(),
		"jobs_running", before.JobsRunning, "queue_depth", before.QueueDepth)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
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
		// Shutdown has already flushed and closed the metric history.
		if errors.Is(drainErr, context.DeadlineExceeded) {
			logger.Error("drain budget exceeded; running jobs aborted")
			os.Exit(1)
		}
		logger.Error("drain", "error", drainErr)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
