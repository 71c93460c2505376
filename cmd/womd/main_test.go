package main

import (
	"context"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/metrics/metricstest"
	"womcpcm/internal/sched"
	"womcpcm/internal/tsdb"
)

// TestTenantLabelRoundTrip: a tenant name holding every character the
// exposition format escapes, plus a tab (which Go %q quoting mis-escapes),
// renders valid /metrics, lands in history under its exact name, and
// seeds the restarted scheduler's SLO window through backfillSLO.
func TestTenantLabelRoundTrip(t *testing.T) {
	const tenant = "a\"b\\c\td"
	cfg := sched.Config{Tenants: []sched.TenantClass{{Name: tenant, DeadlineMs: 60_000}}}
	scheduler := sched.New(cfg)
	db, err := tsdb.Open(tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mgr := engine.New(engine.Config{Workers: 1, QueueDepth: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	srv := engine.NewServer(mgr, engine.WithCollector(scheduler.Collect),
		engine.WithHistory(db), engine.WithCollector(db.Collect))

	db.ScrapeOnce(srv.Collect)
	for i := 0; i < 2; i++ {
		if _, err := scheduler.Enqueue(sched.Item{Tenant: tenant, AdmittedAt: time.Now()}); err != nil {
			t.Fatal(err)
		}
		if _, ok := scheduler.Dequeue(); !ok {
			t.Fatal("dequeue found nothing")
		}
		scheduler.Done(tenant)
	}
	time.Sleep(2 * time.Millisecond) // a distinct scrape timestamp
	db.ScrapeOnce(srv.Collect)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	_, samples := metricstest.Parse(t, rec.Body.String())
	var exposed int
	for _, s := range samples {
		if s.Name == "womd_tenant_dequeued_total" {
			exposed++
			if s.Labels["tenant"] != tenant || s.Value != 2 {
				t.Errorf("exposed %s %q = %g, want %q = 2", s.Name, s.Labels["tenant"], s.Value, tenant)
			}
		}
	}
	if exposed != 1 {
		t.Fatalf("womd_tenant_dequeued_total exposed %d times, want 1", exposed)
	}

	for _, metric := range []string{"womd_tenant_slo_met_total", "womd_tenant_dequeued_total"} {
		infos := db.Series(metric)
		if len(infos) != 1 || infos[0].Labels["tenant"] != tenant {
			t.Fatalf("history %s series: %+v, want tenant %q", metric, infos, tenant)
		}
	}

	restarted := sched.New(cfg)
	backfillSLO(restarted, db, slog.New(slog.DiscardHandler))
	if met, total, ok := restarted.WindowSLO(tenant, 30*time.Minute); !ok || met != 2 || total != 2 {
		t.Fatalf("backfilled window = %d/%d (known %v), want 2/2", met, total, ok)
	}
}
