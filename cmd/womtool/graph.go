package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"html"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"womcpcm/internal/tsdb"
)

// graphDefaults is the curated dashboard rendered when -metrics is not
// given: service throughput and failures as rates, load gauges as
// averages.
var graphDefaults = []string{
	"womd_jobs_completed_total",
	"womd_jobs_failed_total",
	"womd_jobs_rejected_total",
	"womd_queue_depth",
	"womd_jobs_running",
	"womd_tenant_dequeued_total",
}

// graphChart is one fetched metric ready to render: one polyline per
// labelset.
type graphChart struct {
	Metric string
	Agg    string
	StepMs int64
	Series []tsdb.SeriesResult
}

// graphCmd drives `womtool graph`: it pulls range queries from a womd
// instance's embedded metric history (GET /v1/query_range) and writes a
// self-contained HTML dashboard of inline-SVG line charts — no external
// assets, openable from a CI artifact. Counters default to agg=rate,
// gauges to agg=avg; a metric entry "name:agg" overrides.
func graphCmd(args []string) {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	base := fs.String("url", "http://localhost:8080", "base URL of the womd instance")
	metrics := fs.String("metrics", "", "comma-separated metrics to chart, each optionally name:agg (empty = a curated default set)")
	window := fs.Duration("window", time.Hour, "how far back to query")
	step := fs.Duration("step", 0, "query resolution (0 = window/120)")
	out := fs.String("o", "womd-graphs.html", "output HTML file")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	names := graphDefaults
	if *metrics != "" {
		names = strings.Split(*metrics, ",")
	}
	stepMs := step.Milliseconds()
	if stepMs <= 0 {
		stepMs = (*window / 120).Milliseconds()
	}
	if stepMs < 1000 {
		stepMs = 1000
	}
	end := time.Now()
	start := end.Add(-*window)

	client := &http.Client{Timeout: 30 * time.Second}
	var charts []graphChart
	var skipped []string
	for _, entry := range names {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		metric, agg, hasAgg := strings.Cut(entry, ":")
		if !hasAgg {
			agg = "avg"
			if strings.HasSuffix(metric, "_total") {
				agg = "rate"
			}
		}
		q := url.Values{}
		q.Set("metric", metric)
		q.Set("agg", agg)
		q.Set("start", fmt.Sprint(start.Unix()))
		q.Set("end", fmt.Sprint(end.Unix()))
		q.Set("step", fmt.Sprintf("%dms", stepMs))
		resp, err := client.Get(strings.TrimRight(*base, "/") + "/v1/query_range?" + q.Encode())
		if err != nil {
			fatal(err)
		}
		if resp.StatusCode == http.StatusNotImplemented {
			resp.Body.Close()
			fatal(fmt.Errorf("%s has no metric history (womd -history=false?)", *base))
		}
		var body struct {
			Series []tsdb.SeriesResult `json:"series"`
			Error  string              `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			fatal(fmt.Errorf("decoding %s: %w", metric, err))
		}
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("query %s: HTTP %d: %s", metric, resp.StatusCode, body.Error))
		}
		if len(body.Series) == 0 {
			skipped = append(skipped, metric)
			continue
		}
		charts = append(charts, graphChart{Metric: metric, Agg: agg, StepMs: stepMs, Series: body.Series})
	}

	var b strings.Builder
	renderGraphHTML(&b, *base, start, end, charts, skipped)
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d charts", *out, len(charts))
	if len(skipped) > 0 {
		fmt.Printf(", no data: %s", strings.Join(skipped, " "))
	}
	fmt.Println(")")
}

const (
	gChartW   = 860
	gChartH   = 180
	gMarginL  = 64
	gMarginR  = 12
	gMarginT  = 10
	gMarginB  = 22
	gMaxLines = 12 // charts with more labelsets keep the busiest ones
)

var graphColors = []string{
	"#1668dc", "#d4380d", "#389e0d", "#722ed1", "#d48806",
	"#08979c", "#c41d7f", "#5b8c00", "#531dab", "#ad4e00",
	"#006d75", "#9e1068",
}

// renderGraphHTML writes the full dashboard document. Pure over its
// inputs so tests can assert the SVG without a server.
func renderGraphHTML(b *strings.Builder, base string, start, end time.Time,
	charts []graphChart, skipped []string) {
	fmt.Fprintf(b, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>womd metric history</title>
<style>
body{font:14px/1.45 -apple-system,"Segoe UI",sans-serif;margin:24px;color:#222;max-width:960px}
h1{font-size:20px}h2{font-size:15px;margin:18px 0 2px}
p.sub{color:#666;margin:2px 0 6px;font-size:12px}
svg{background:#fafafa;border:1px solid #eee}
p.legend{margin:2px 0 4px;font-size:12px}
p.legend span{margin-right:12px;white-space:nowrap}
p.legend i{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}
</style></head><body>
<h1>womd metric history</h1>
<p class="sub">%s &middot; %s &rarr; %s</p>
`, html.EscapeString(base),
		html.EscapeString(start.Format(time.RFC3339)),
		html.EscapeString(end.Format(time.RFC3339)))
	for i := range charts {
		renderGraphChart(b, &charts[i])
	}
	if len(charts) == 0 {
		b.WriteString("<p>No data in the queried window.</p>\n")
	}
	if len(skipped) > 0 {
		fmt.Fprintf(b, "<p class=\"sub\">No data: %s</p>\n",
			html.EscapeString(strings.Join(skipped, ", ")))
	}
	b.WriteString("</body></html>\n")
}

// seriesLabel compresses a labelset for the legend: k=v pairs, sorted.
func seriesLabel(sr *tsdb.SeriesResult) string {
	if len(sr.Labels) == 0 {
		return "(no labels)"
	}
	keys := make([]string, 0, len(sr.Labels))
	for k := range sr.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + sr.Labels[k]
	}
	return strings.Join(parts, ",")
}

func renderGraphChart(b *strings.Builder, c *graphChart) {
	series := c.Series
	if len(series) > gMaxLines {
		// Keep the labelsets with the largest peaks; note the cut.
		sorted := append([]tsdb.SeriesResult(nil), series...)
		sort.Slice(sorted, func(i, j int) bool {
			return seriesPeak(&sorted[i]) > seriesPeak(&sorted[j])
		})
		series = sorted[:gMaxLines]
	}
	var minT, maxT int64
	maxV := 0.0
	for i := range series {
		for _, p := range series[i].Points {
			if minT == 0 || p.T < minT {
				minT = p.T
			}
			if p.T > maxT {
				maxT = p.T
			}
			if p.V > maxV {
				maxV = p.V
			}
		}
	}
	if maxT <= minT {
		return
	}
	if maxV <= 0 {
		maxV = 1
	}
	fmt.Fprintf(b, "<h2>%s</h2>\n<p class=\"sub\">agg=%s, step=%s, tier=%s</p>\n",
		html.EscapeString(c.Metric), html.EscapeString(c.Agg),
		(time.Duration(c.StepMs) * time.Millisecond).String(),
		(time.Duration(series[0].TierMs) * time.Millisecond).String())
	if len(c.Series) > gMaxLines {
		fmt.Fprintf(b, "<p class=\"sub\">showing %d of %d labelsets (largest peaks)</p>\n",
			gMaxLines, len(c.Series))
	}
	b.WriteString("<p class=\"legend\">")
	for i := range series {
		fmt.Fprintf(b, "<span><i style=\"background:%s\"></i>%s</span>",
			graphColors[i%len(graphColors)], html.EscapeString(seriesLabel(&series[i])))
	}
	b.WriteString("</p>\n")

	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" role=\"img\" xmlns=\"http://www.w3.org/2000/svg\">\n",
		gChartW, gChartH, gChartW, gChartH)
	// Frame: y-axis max/zero labels and the time extent.
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>\n",
		gMarginL, gChartH-gMarginB, gChartW-gMarginR, gChartH-gMarginB)
	fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>\n",
		gMarginL, gMarginT, gMarginL, gChartH-gMarginB)
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">%.4g</text>\n",
		gMarginL-4, gMarginT+8, maxV)
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">0</text>\n",
		gMarginL-4, gChartH-gMarginB)
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" font-size=\"10\" fill=\"#666\">%s</text>\n",
		gMarginL, gChartH-6, html.EscapeString(time.UnixMilli(minT).Format("15:04:05")))
	fmt.Fprintf(b, "<text x=\"%d\" y=\"%d\" font-size=\"10\" fill=\"#666\" text-anchor=\"end\">%s</text>\n",
		gChartW-gMarginR, gChartH-6, html.EscapeString(time.UnixMilli(maxT).Format("15:04:05")))
	for i := range series {
		var pts strings.Builder
		for _, p := range series[i].Points {
			x := float64(gMarginL) + float64(p.T-minT)/float64(maxT-minT)*float64(gChartW-gMarginL-gMarginR)
			y := float64(gChartH-gMarginB) - p.V/maxV*float64(gChartH-gMarginT-gMarginB)
			fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
		}
		fmt.Fprintf(b, "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\"%s\"/>\n",
			graphColors[i%len(graphColors)], strings.TrimSpace(pts.String()))
	}
	b.WriteString("</svg>\n")
}

func seriesPeak(sr *tsdb.SeriesResult) float64 {
	peak := 0.0
	for _, p := range sr.Points {
		if p.V > peak {
			peak = p.V
		}
	}
	return peak
}
