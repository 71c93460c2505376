package engine

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/metrics/metricstest"
)

// TestPromExposition scrapes a live /metrics and checks the exposition
// contract end to end: every # TYPE line is backed by at least one sample,
// histogram buckets are cumulative (monotone non-decreasing) and end at
// +Inf agreeing with _count, and every label value is properly quoted.
func TestPromExposition(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 4})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	srv := NewServer(mgr)

	// Run one real job so the wall-time histogram has series.
	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "fig5", Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	for !job.State().Terminal() {
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	types, samples := metricstest.Parse(t, rec.Body.String())
	if len(types) == 0 || len(samples) == 0 {
		t.Fatalf("empty exposition: %d types, %d samples", len(types), len(samples))
	}

	// Every sample belongs to a declared family of a known type, and every
	// declared family has at least one sample.
	seen := make(map[string]bool)
	for _, s := range samples {
		base := metricstest.BaseName(s.Name)
		typ, ok := types[base]
		if !ok {
			// _bucket/_sum/_count suffixes are only histogram series; a plain
			// gauge named *_count would have its own TYPE line.
			typ, ok = types[s.Name]
			base = s.Name
		}
		if !ok {
			t.Errorf("sample %s has no TYPE line", s.Name)
			continue
		}
		if typ == "histogram" && base != s.Name && !strings.HasSuffix(s.Name, "_bucket") &&
			!strings.HasSuffix(s.Name, "_sum") && !strings.HasSuffix(s.Name, "_count") {
			t.Errorf("histogram %s has non-histogram series %s", base, s.Name)
		}
		seen[base] = true
	}
	for name, typ := range types {
		if !seen[name] {
			t.Errorf("# TYPE %s %s has no samples", name, typ)
		}
	}

	// Histogram buckets: grouped by their non-le labels, cumulative counts
	// must be monotone non-decreasing, end at le="+Inf", and match _count.
	type series struct {
		les    []string
		counts []float64
	}
	groups := make(map[string]*series)
	counts := make(map[string]float64)
	for _, s := range samples {
		base := metricstest.BaseName(s.Name)
		if types[base] != "histogram" {
			continue
		}
		key := base
		var rest []string
		for k, v := range s.Labels {
			if k != "le" {
				rest = append(rest, fmt.Sprintf("%s=%s", k, v))
			}
		}
		sort.Strings(rest)
		key += "{" + strings.Join(rest, ",") + "}"
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			g := groups[key]
			if g == nil {
				g = &series{}
				groups[key] = g
			}
			g.les = append(g.les, s.Labels["le"])
			g.counts = append(g.counts, s.Value)
		case strings.HasSuffix(s.Name, "_count"):
			counts[key] = s.Value
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram series scraped")
	}
	for key, g := range groups {
		if n := len(g.les); n == 0 || g.les[n-1] != "+Inf" {
			t.Errorf("%s: bucket series does not end at +Inf: %v", key, g.les)
			continue
		}
		for i := 1; i < len(g.counts); i++ {
			if g.counts[i] < g.counts[i-1] {
				t.Errorf("%s: buckets not cumulative at le=%s: %v", key, g.les[i], g.counts)
				break
			}
		}
		if total, ok := counts[key]; !ok || g.counts[len(g.counts)-1] != total {
			t.Errorf("%s: +Inf bucket %g != _count %g", key, g.counts[len(g.counts)-1], total)
		}
	}

	// The build-info gauge carries its metadata in quoted labels.
	var foundBuild bool
	for _, s := range samples {
		if s.Name == "womd_build_info" {
			foundBuild = true
			if s.Labels["go_version"] == "" || s.Labels["revision"] == "" || s.Value != 1 {
				t.Errorf("womd_build_info = %+v", s)
			}
		}
	}
	if !foundBuild {
		t.Error("womd_build_info not exposed")
	}
	if _, ok := types["womd_uptime_seconds"]; !ok {
		t.Error("womd_uptime_seconds not exposed")
	}
}
