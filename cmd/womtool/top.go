package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"html"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"womcpcm/internal/engine"
	"womcpcm/internal/health"
	"womcpcm/internal/sched"
)

// topSnapshot is one poll of a womd instance's ops surface. Sections the
// target does not serve (no tenants without -tenants, no alerts with
// -alerts=false) stay nil and render as absent
// rather than failing the whole frame.
type topSnapshot struct {
	At       time.Time
	Ready    *engine.Readiness
	Tenants  []sched.TenantView
	AlertsOn bool // /v1/alerts answered; a healthy empty list still counts
	Alerts   []health.AlertView
	Counts   map[health.State]int
	Sparks   []sparkline // metric-history sparklines; nil without -history
	Errs     []string
}

// sparkline is one history-fed trend row: label plus the queried points,
// oldest first.
type sparkline struct {
	Label  string
	Unit   string
	Points []float64
}

// topCmd drives `womtool top`: a live ops dashboard over GET /v1/tenants,
// /v1/alerts, and /readyz — firing alerts first, then tenant load, then
// ten-minute sparklines from the target's metric
// history when it runs with -history. -once prints a single frame and
// exits 2 if any alert is firing, so smoke tests and cron wrappers can
// gate on the exit code; -html re-renders a self-refreshing HTML
// snapshot instead.
func topCmd(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8080", "base URL of the womd instance to watch")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "print one frame and exit")
	frames := fs.Int("n", 0, "stop after this many frames (0 = until interrupted)")
	htmlOut := fs.String("html", "", "write each frame to this HTML file (meta-refresh) instead of the terminal")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; ; i++ {
		snap := pollTop(client, strings.TrimRight(*url, "/"))
		switch {
		case *htmlOut != "":
			var buf strings.Builder
			renderTopHTML(&buf, snap, *interval)
			if err := os.WriteFile(*htmlOut, []byte(buf.String()), 0o644); err != nil {
				fatal(err)
			}
		case *once:
			renderTop(os.Stdout, snap)
		default:
			fmt.Print("\x1b[2J\x1b[H") // clear + home, a fresh frame each poll
			renderTop(os.Stdout, snap)
		}
		if *once {
			if snap.Counts[health.StateFiring] > 0 {
				os.Exit(2)
			}
			return
		}
		if *frames > 0 && i+1 >= *frames {
			return
		}
		time.Sleep(*interval)
	}
}

// topGet decodes one endpoint into out. ok=false (no error recorded) means
// the endpoint is not enabled on the target; transport failures and other
// statuses are reported.
func topGet(client *http.Client, url string, out any, errs *[]string) bool {
	resp, err := client.Get(url)
	if err != nil {
		*errs = append(*errs, err.Error())
		return false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotImplemented, http.StatusNotFound:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return false
	default:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		*errs = append(*errs, fmt.Sprintf("%s: HTTP %d", url, resp.StatusCode))
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		*errs = append(*errs, fmt.Sprintf("%s: %v", url, err))
		return false
	}
	return true
}

func pollTop(client *http.Client, base string) topSnapshot {
	snap := topSnapshot{At: time.Now()}

	// /readyz answers 200 and 503 with the same JSON body; both are data.
	if resp, err := client.Get(base + "/readyz"); err != nil {
		snap.Errs = append(snap.Errs, err.Error())
	} else {
		var rd engine.Readiness
		if err := json.NewDecoder(resp.Body).Decode(&rd); err == nil {
			snap.Ready = &rd
		}
		resp.Body.Close()
	}

	var tenants struct {
		Tenants []sched.TenantView `json:"tenants"`
	}
	if topGet(client, base+"/v1/tenants", &tenants, &snap.Errs) {
		snap.Tenants = tenants.Tenants
	}
	var alerts struct {
		Alerts []health.AlertView   `json:"alerts"`
		Counts map[health.State]int `json:"counts"`
	}
	if topGet(client, base+"/v1/alerts", &alerts, &snap.Errs) {
		snap.AlertsOn = true
		snap.Alerts = alerts.Alerts
		snap.Counts = alerts.Counts
	}
	snap.Sparks = pollSparks(client, base, snap.At)
	return snap
}

// sparkQueries is the trend set `womtool top` asks the metric history
// for: throughput and failures as rates, load as averages.
var sparkQueries = []struct {
	label, metric, agg, unit string
}{
	{"jobs/s", "womd_jobs_completed_total", "rate", "jobs/s"},
	{"fails/s", "womd_jobs_failed_total", "rate", "jobs/s"},
	{"queue", "womd_queue_depth", "avg", "jobs"},
	{"running", "womd_jobs_running", "avg", "jobs"},
}

// pollSparks fetches ten minutes of history at 30s resolution for the
// sparkline rows. A target without -history (501) yields nil and the
// section renders as absent; labeled series are summed into one trend.
func pollSparks(client *http.Client, base string, now time.Time) []sparkline {
	var out []sparkline
	for _, q := range sparkQueries {
		u := fmt.Sprintf("%s/v1/query_range?metric=%s&agg=%s&start=%d&end=%d&step=30s",
			base, q.metric, q.agg, now.Add(-10*time.Minute).Unix(), now.Unix())
		var body struct {
			Series []struct {
				Points []struct {
					T int64   `json:"t"`
					V float64 `json:"v"`
				} `json:"points"`
			} `json:"series"`
		}
		var discard []string
		if !topGet(client, u, &body, &discard) || len(body.Series) == 0 {
			continue
		}
		byT := map[int64]float64{}
		var ts []int64
		for _, s := range body.Series {
			for _, p := range s.Points {
				if _, seen := byT[p.T]; !seen {
					ts = append(ts, p.T)
				}
				byT[p.T] += p.V
			}
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		pts := make([]float64, len(ts))
		for i, t := range ts {
			pts[i] = byT[t]
		}
		out = append(out, sparkline{Label: q.label, Unit: q.unit, Points: pts})
	}
	return out
}

// sparkBars renders points as a unicode block-bar strip scaled to the
// strip's own max.
func sparkBars(points []float64) string {
	const bars = "▁▂▃▄▅▆▇█"
	max := 0.0
	for _, v := range points {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range points {
		if max <= 0 || v <= 0 {
			b.WriteRune('▁')
			continue
		}
		idx := int(v / max * 7.999)
		b.WriteRune(rune([]rune(bars)[idx]))
	}
	return b.String()
}

func topAge(at, now time.Time) string {
	return now.Sub(at).Truncate(time.Second).String()
}

// renderTop writes one text frame. Pure over the snapshot so tests can
// assert frames without a server or a clock.
func renderTop(w io.Writer, snap topSnapshot) {
	fmt.Fprintf(w, "womd top  %s", snap.At.Format(time.RFC3339))
	if snap.Ready != nil {
		if snap.Ready.Ready {
			fmt.Fprintf(w, "  ready")
		} else {
			fmt.Fprintf(w, "  NOT READY (%s)", snap.Ready.Reason)
		}
		fmt.Fprintf(w, "  queue %d", snap.Ready.QueueDepth)
		if snap.Ready.QueueCap > 0 {
			fmt.Fprintf(w, "/%d", snap.Ready.QueueCap)
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "\nALERTS  firing %d  pending %d  resolved %d\n",
		snap.Counts[health.StateFiring], snap.Counts[health.StatePending],
		snap.Counts[health.StateResolved])
	if !snap.AlertsOn {
		fmt.Fprintln(w, "  (alerting not enabled)")
	}
	for _, a := range snap.Alerts {
		line := fmt.Sprintf("  %-8s %-28s %-14s %s  for %s",
			strings.ToUpper(string(a.State)), a.Rule, a.Subject, a.Severity,
			topAge(a.StartedAt, snap.At))
		if a.Threshold != 0 {
			line += fmt.Sprintf("  %.3g vs %.3g", a.Value, a.Threshold)
		}
		if tid := a.Annotations["exemplar_trace"]; tid != "" {
			line += "  trace " + tid
		}
		fmt.Fprintln(w, line)
	}

	if snap.Tenants != nil {
		fmt.Fprintln(w, "\nTENANTS")
		views := append([]sched.TenantView(nil), snap.Tenants...)
		sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
		for _, v := range views {
			fmt.Fprintf(w, "  %-14s depth %-4d inflight %-3d sheds %-5d slo 1m %.3f  5m %.3f  30m %.3f\n",
				v.Name, v.Depth, v.Inflight, v.Sheds,
				v.SLOAttainment1m, v.SLOAttainment5m, v.SLOAttainment30m)
		}
	}

	if len(snap.Sparks) > 0 {
		fmt.Fprintln(w, "\nHISTORY (10m)")
		for _, s := range snap.Sparks {
			last := 0.0
			if len(s.Points) > 0 {
				last = s.Points[len(s.Points)-1]
			}
			fmt.Fprintf(w, "  %-9s %s  %.3g %s\n", s.Label, sparkBars(s.Points), last, s.Unit)
		}
	}

	for _, e := range snap.Errs {
		fmt.Fprintf(w, "\n! %s\n", e)
	}
}

// renderTopHTML wraps the text frame in a minimal self-refreshing page, so
// `womtool top -html out.html` plus any static file server is a dashboard.
func renderTopHTML(w io.Writer, snap topSnapshot, interval time.Duration) {
	var frame strings.Builder
	renderTop(&frame, snap)
	refresh := int(interval.Seconds())
	if refresh < 1 {
		refresh = 1
	}
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="%d">
<title>womd top</title>
<style>body{background:#111;color:#ddd;font:13px/1.5 monospace;padding:1em}</style>
</head><body><pre>%s</pre></body></html>
`, refresh, html.EscapeString(frame.String()))
}
