package main

import (
	"strings"
	"testing"
	"time"

	"womcpcm/internal/tsdb"
)

func TestSparkBars(t *testing.T) {
	got := sparkBars([]float64{0, 1, 4, 8})
	want := "▁▁▄█"
	if got != want {
		t.Fatalf("sparkBars = %q, want %q", got, want)
	}
	if got := sparkBars([]float64{0, 0}); got != "▁▁" {
		t.Fatalf("all-zero sparkBars = %q, want flat", got)
	}
	if got := sparkBars(nil); got != "" {
		t.Fatalf("empty sparkBars = %q", got)
	}
}

func TestRenderTopHistorySection(t *testing.T) {
	snap := topSnapshot{
		At: time.Unix(1_700_000_000, 0),
		Sparks: []sparkline{
			{Label: "jobs/s", Unit: "jobs/s", Points: []float64{1, 2, 8}},
		},
	}
	var b strings.Builder
	renderTop(&b, snap)
	out := b.String()
	if !strings.Contains(out, "HISTORY (10m)") {
		t.Fatalf("frame missing history section:\n%s", out)
	}
	if !strings.Contains(out, "jobs/s") || !strings.Contains(out, "█") {
		t.Fatalf("frame missing sparkline row:\n%s", out)
	}
	// Without history the section is absent, not empty.
	var plain strings.Builder
	renderTop(&plain, topSnapshot{At: snap.At})
	if strings.Contains(plain.String(), "HISTORY") {
		t.Fatalf("history section rendered without data:\n%s", plain.String())
	}
}

func TestRenderGraphHTML(t *testing.T) {
	base := time.UnixMilli(1_700_000_000_000)
	charts := []graphChart{{
		Metric: "womd_jobs_completed_total",
		Agg:    "rate",
		StepMs: 30_000,
		Series: []tsdb.SeriesResult{
			{
				Metric: "womd_jobs_completed_total",
				Labels: map[string]string{"tenant": "alpha"},
				TierMs: 0,
				Points: []tsdb.Point{
					{T: base.UnixMilli(), V: 1},
					{T: base.Add(30 * time.Second).UnixMilli(), V: 4},
					{T: base.Add(time.Minute).UnixMilli(), V: 2},
				},
			},
			{
				Metric: "womd_jobs_completed_total",
				Labels: map[string]string{"tenant": "<batch>"},
				TierMs: 0,
				Points: []tsdb.Point{
					{T: base.UnixMilli(), V: 3},
					{T: base.Add(time.Minute).UnixMilli(), V: 5},
				},
			},
		},
	}}
	var b strings.Builder
	renderGraphHTML(&b, "http://localhost:8080", base.Add(-time.Hour), base.Add(time.Minute),
		charts, []string{"womd_tenant_dequeued_total"})
	out := b.String()
	for _, want := range []string{
		"<svg", "<polyline", "womd_jobs_completed_total",
		"tenant=alpha", "agg=rate",
		"tenant=&lt;batch&gt;", // label values are HTML-escaped
		"No data: womd_tenant_dequeued_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "<polyline"); n != 2 {
		t.Fatalf("polylines = %d, want 2 (one per labelset)", n)
	}
	// An empty chart set still renders a valid document.
	var empty strings.Builder
	renderGraphHTML(&empty, "http://x", base, base, nil, nil)
	if !strings.Contains(empty.String(), "No data in the queried window") {
		t.Fatalf("empty dashboard:\n%s", empty.String())
	}
}

// TestGraphStepBounded: however small -step is, the query grid stays
// within womd's point limit, and the defaults are unchanged.
func TestGraphStepBounded(t *testing.T) {
	for _, tc := range []struct {
		window, step time.Duration
		want         int64
	}{
		{time.Hour, 0, 30_000},              // window/120
		{time.Hour, time.Millisecond, 1000}, // 1 s floor
		{10 * time.Minute, 5 * time.Second, 5000},
	} {
		if got := graphStepMs(tc.window, tc.step); got != tc.want {
			t.Errorf("graphStepMs(%v, %v) = %d, want %d", tc.window, tc.step, got, tc.want)
		}
	}
	for _, window := range []time.Duration{24 * time.Hour, 7 * 24 * time.Hour, 30 * 24 * time.Hour} {
		stepMs := graphStepMs(window, time.Millisecond)
		// The widest range the request can carry: window plus one second
		// of rounding to whole seconds.
		if n := (window.Milliseconds() + 1000) / stepMs; n > tsdb.MaxQueryPoints {
			t.Errorf("window %v, -step 1ms: %d points exceed %d", window, n, tsdb.MaxQueryPoints)
		}
	}
}
