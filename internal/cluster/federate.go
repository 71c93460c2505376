package cluster

// Fleet metrics federation: the coordinator periodically scrapes each
// registered worker's GET /metrics, keeps the womd_* families, renames
// them womd_fleet_* and stamps every sample with an instance="<worker id>"
// label, then re-exposes the merged result on its own /metrics (appended
// by Coordinator.Collect) plus a summarized JSON view on GET /v1/fleet.
// Each worker's text is read once with metrics.Parse; the merge works on
// the parsed families. The rename keeps the coordinator's own womd_*
// families collision-free, and the strict exposition rule (one TYPE
// header per family, never without samples) holds because each federated
// family is emitted once with the samples of every instance under it.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"womcpcm/internal/metrics"
)

// scrapeTimeout bounds one worker /metrics fetch; a wedged worker must not
// stall the whole federation pass for long.
const scrapeTimeout = 5 * time.Second

// scrapeBodyLimit caps one scrape response. A worker exposition is a few
// KiB; anything near the cap is a misconfigured endpoint, not metrics.
const scrapeBodyLimit = 4 << 20

// federated holds the result of the coordinator's last scrape pass.
type federated struct {
	mu sync.Mutex
	// families are the merged fleet families in name order; immutable once
	// installed — a pass builds a fresh slice and swaps it in.
	families  []metrics.Family
	instances int       // workers scraped successfully in the last pass
	errors    uint64    // cumulative failed scrapes
	last      time.Time // when the last pass finished (zero: none yet)
}

// federateLoop runs scrape passes every cfg.Federate until stopped.
func (c *Coordinator) federateLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Federate)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.FederateOnce(context.Background())
		}
	}
}

// FederateOnce performs one scrape pass over the registered fleet and
// swaps the merged families in. Exported so tests (and debugging) can
// force a pass deterministically instead of waiting on the loop.
func (c *Coordinator) FederateOnce(ctx context.Context) {
	type target struct{ id, addr string }
	c.mu.Lock()
	targets := make([]target, 0, len(c.workers))
	for _, ws := range c.workers {
		targets = append(targets, target{id: ws.id, addr: ws.addr})
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })

	merged := make(map[string]*metrics.Family)
	up := 0
	var errs uint64
	for _, t := range targets {
		body, err := c.scrapeWorker(ctx, t.addr)
		if err != nil {
			errs++
			c.log.Warn("fleet metrics scrape failed", "worker", t.id, "error", err.Error())
			continue
		}
		up++
		parsed, _ := metrics.Parse(body) // unreadable worker lines are skipped
		mergeFleetFamilies(merged, parsed, t.id)
	}
	fams := make([]metrics.Family, 0, len(merged))
	for _, f := range merged {
		fams = append(fams, *f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	c.fed.mu.Lock()
	c.fed.families = fams
	c.fed.instances = up
	c.fed.errors += errs
	c.fed.last = c.now()
	c.fed.mu.Unlock()
}

// scrapeWorker fetches one worker's Prometheus exposition text.
func (c *Coordinator) scrapeWorker(ctx context.Context, addr string) (string, error) {
	sctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, "GET", addr+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, scrapeBodyLimit))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// fleetName maps a worker family name into the federated namespace.
// Non-womd families are dropped, and already-federated ones too — scraping
// another coordinator must not compound the prefix.
func fleetName(name string) (string, bool) {
	if !strings.HasPrefix(name, "womd_") || strings.HasPrefix(name, "womd_fleet_") {
		return "", false
	}
	return "womd_fleet_" + name[len("womd_"):], true
}

// mergeFleetFamilies folds one instance's parsed families into fams:
// each womd_* family is renamed into the fleet namespace and every sample
// gains an instance label. The first instance to supply a HELP or TYPE
// wins.
func mergeFleetFamilies(fams map[string]*metrics.Family, parsed []metrics.Family, instance string) {
	for _, f := range parsed {
		name, ok := fleetName(f.Name)
		if !ok {
			continue
		}
		fam := fams[name]
		if fam == nil {
			fam = &metrics.Family{Name: name}
			fams[name] = fam
		}
		if fam.Help == "" {
			fam.Help = f.Help
		}
		if fam.Type == "" {
			fam.Type = f.Type
		}
		for _, s := range f.Samples {
			s.Labels = append(s.Labels, metrics.Label{Name: "instance", Value: instance})
			fam.Samples = append(fam.Samples, s)
		}
	}
}

// federatedFamilies returns the federation meta-metrics, then the merged
// fleet families in name order.
func (c *Coordinator) federatedFamilies() []metrics.Family {
	c.fed.mu.Lock()
	instances, errors, last, fleet := c.fed.instances, c.fed.errors, c.fed.last, c.fed.families
	c.fed.mu.Unlock()
	fams := []metrics.Family{
		metrics.Gauge("womd_fleet_instances", "Workers scraped successfully in the last federation pass.",
			float64(instances)),
		metrics.Counter("womd_fleet_scrape_errors_total", "Failed worker /metrics scrapes.", float64(errors)),
	}
	if !last.IsZero() {
		fams = append(fams, metrics.Gauge("womd_fleet_scrape_age_seconds",
			"Time since the last federation pass.", c.now().Sub(last).Seconds()))
	}
	return append(fams, fleet...)
}

// FleetWorkerView is one worker in GET /v1/fleet: identity plus the load
// figures from its most recent heartbeat.
type FleetWorkerView struct {
	ID             string `json:"id"`
	Name           string `json:"name"`
	Addr           string `json:"addr"`
	Capacity       int    `json:"capacity"`
	HeartbeatAgeMs int64  `json:"heartbeat_age_ms"`
	Draining       bool   `json:"draining,omitempty"`
	Ready          bool   `json:"ready"`
	QueueDepth     int64  `json:"queue_depth"`
	Running        int64  `json:"running"`
	Completed      uint64 `json:"completed"`
	Failed         uint64 `json:"failed"`
	SimEvents      uint64 `json:"sim_events"`
	Outstanding    int    `json:"outstanding"`
}

// FleetTotals sums the per-worker load figures.
type FleetTotals struct {
	Workers    int    `json:"workers"`
	QueueDepth int64  `json:"queue_depth"`
	Running    int64  `json:"running"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	SimEvents  uint64 `json:"sim_events"`
}

// FleetFederation reports the scrape loop's health.
type FleetFederation struct {
	Instances    int    `json:"instances"`
	ScrapeErrors uint64 `json:"scrape_errors"`
	// LastScrapeAgeMs is -1 until the first pass completes.
	LastScrapeAgeMs int64 `json:"last_scrape_age_ms"`
}

// FleetView is the GET /v1/fleet payload.
type FleetView struct {
	Workers    []FleetWorkerView `json:"workers"`
	Totals     FleetTotals       `json:"totals"`
	Federation FleetFederation   `json:"federation"`
}

// HandleFleet serves GET /v1/fleet: the operator-facing fleet summary —
// per-worker load, fleet totals, federation health. Mounted on the
// coordinator's public API mux by cmd/womd.
func (c *Coordinator) HandleFleet(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	workers := make([]FleetWorkerView, 0, len(c.workers))
	for _, ws := range c.workers {
		workers = append(workers, FleetWorkerView{
			ID:             ws.id,
			Name:           ws.name,
			Addr:           ws.addr,
			Capacity:       ws.capacity,
			HeartbeatAgeMs: c.now().Sub(ws.lastBeat).Milliseconds(),
			Draining:       ws.draining,
			Ready:          !ws.draining && !ws.notReady,
			QueueDepth:     ws.queueDepth,
			Running:        ws.running,
			Completed:      ws.completed,
			Failed:         ws.failed,
			SimEvents:      ws.simEvents,
			Outstanding:    len(ws.assignments),
		})
	}
	c.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })

	view := FleetView{Workers: workers}
	for _, wv := range workers {
		view.Totals.Workers++
		view.Totals.QueueDepth += wv.QueueDepth
		view.Totals.Running += wv.Running
		view.Totals.Completed += wv.Completed
		view.Totals.Failed += wv.Failed
		view.Totals.SimEvents += wv.SimEvents
	}
	c.fed.mu.Lock()
	view.Federation = FleetFederation{
		Instances:       c.fed.instances,
		ScrapeErrors:    c.fed.errors,
		LastScrapeAgeMs: -1,
	}
	if !c.fed.last.IsZero() {
		view.Federation.LastScrapeAgeMs = c.now().Sub(c.fed.last).Milliseconds()
	}
	c.fed.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}
