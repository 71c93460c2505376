package engine

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"womcpcm/internal/tsdb"
)

// queryRange serves GET /v1/query_range?metric=&match[l]=&start=&end=&
// step=&agg=&tier=. start/end accept unix seconds (fractions allowed),
// unix milliseconds, or RFC3339; step and tier accept Go durations or
// bare seconds. agg is one of rate|avg|min|max|sum (default avg).
func (s *Server) queryRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rq := tsdb.RangeQuery{Metric: q.Get("metric"), Agg: q.Get("agg")}
	var err error
	if rq.StartMs, err = parseTimeMs(q.Get("start")); err != nil {
		writeError(w, fmt.Errorf("%w: start: %v", tsdb.ErrBadQuery, err))
		return
	}
	if rq.EndMs, err = parseTimeMs(q.Get("end")); err != nil {
		writeError(w, fmt.Errorf("%w: end: %v", tsdb.ErrBadQuery, err))
		return
	}
	if v := q.Get("step"); v != "" {
		d, err := parseDur(v)
		if err != nil {
			writeError(w, fmt.Errorf("%w: step: %v", tsdb.ErrBadQuery, err))
			return
		}
		rq.StepMs = d.Milliseconds()
	}
	if v := q.Get("tier"); v != "" {
		d, err := parseDur(v)
		if err != nil {
			writeError(w, fmt.Errorf("%w: tier: %v", tsdb.ErrBadQuery, err))
			return
		}
		rq.TierStep = d
	}
	for key, vals := range q {
		if strings.HasPrefix(key, "match[") && strings.HasSuffix(key, "]") && len(vals) > 0 {
			if rq.Match == nil {
				rq.Match = make(map[string]string, 4)
			}
			rq.Match[key[len("match["):len(key)-1]] = vals[0]
		}
	}
	series, err := s.m.History().QueryRange(rq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metric":   rq.Metric,
		"agg":      rq.Agg,
		"start_ms": rq.StartMs,
		"end_ms":   rq.EndMs,
		"step_ms":  rq.StepMs,
		"series":   series,
	})
}

// listSeries serves GET /v1/series[?metric=]: the discovery surface for
// query_range and womtool graph.
func (s *Server) listSeries(w http.ResponseWriter, r *http.Request) {
	series := s.m.History().Series(r.URL.Query().Get("metric"))
	writeJSON(w, http.StatusOK, map[string]any{"series": series})
}

// alertHistory serves GET /v1/alerts/history[?limit=&start=&end=]: the
// journaled alert lifecycle transitions, newest first — unlike
// /v1/alerts, this survives a restart.
func (s *Server) alertHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("%w: limit %q", tsdb.ErrBadQuery, v))
			return
		}
		limit = n
	}
	var from, to time.Time
	if v := q.Get("start"); v != "" {
		ms, err := parseTimeMs(v)
		if err != nil {
			writeError(w, fmt.Errorf("%w: start: %v", tsdb.ErrBadQuery, err))
			return
		}
		from = time.UnixMilli(ms)
	}
	if v := q.Get("end"); v != "" {
		ms, err := parseTimeMs(v)
		if err != nil {
			writeError(w, fmt.Errorf("%w: end: %v", tsdb.ErrBadQuery, err))
			return
		}
		to = time.UnixMilli(ms)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"transitions": s.m.History().AlertHistory(from, to, limit),
	})
}

// parseTimeMs accepts unix seconds (with optional fraction), unix
// milliseconds (values past year 2603 in seconds are read as ms), or
// RFC3339, and returns unix milliseconds.
func parseTimeMs(v string) (int64, error) {
	if v == "" {
		return 0, fmt.Errorf("required")
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		if f > 2e10 { // past 2603-10-11 as seconds: treat as milliseconds
			return int64(f), nil
		}
		return int64(f * 1000), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return 0, err
	}
	return t.UnixMilli(), nil
}

// parseDur accepts a Go duration string or bare seconds.
func parseDur(v string) (time.Duration, error) {
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return time.Duration(secs * float64(time.Second)), nil
	}
	return time.ParseDuration(v)
}
