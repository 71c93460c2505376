package cluster

import (
	"sync"
	"sync/atomic"

	"womcpcm/internal/metrics"
)

// Dispatch outcomes for womd_cluster_dispatch_total.
const (
	outcomeOK      = "ok"      // done frame received, job settled
	outcomeRequeue = "requeue" // dispatch or stream failed; job re-routed
	outcomeStolen  = "stolen"  // queued job stolen back for rebalancing
	outcomeError   = "error"   // dispatch RPC itself failed
)

// clusterMetrics aggregates the coordinator's fleet counters, exported as
// the womd_cluster_* Prometheus families via Coordinator.Collect.
type clusterMetrics struct {
	Requeues  atomic.Uint64 // jobs re-routed after a worker failure/eviction
	Steals    atomic.Uint64 // queued jobs stolen back for rebalancing
	Evictions atomic.Uint64 // workers evicted on heartbeat timeout

	mu       sync.Mutex
	dispatch map[[2]string]uint64 // {worker, outcome} → count
}

func newClusterMetrics() *clusterMetrics {
	return &clusterMetrics{dispatch: make(map[[2]string]uint64)}
}

// CountDispatch increments womd_cluster_dispatch_total{worker,outcome}.
func (m *clusterMetrics) CountDispatch(worker, outcome string) {
	m.mu.Lock()
	m.dispatch[[2]string{worker, outcome}]++
	m.mu.Unlock()
}

// dispatchFamily builds the labeled dispatch family, ordered by worker
// then outcome.
func (m *clusterMetrics) dispatchFamily() metrics.Family {
	fam := metrics.Family{Name: "womd_cluster_dispatch_total", Type: "counter",
		Help: "Job dispatches by worker and outcome."}
	m.mu.Lock()
	for k, n := range m.dispatch {
		fam.Samples = append(fam.Samples, metrics.Sample{
			Labels: metrics.Labels("worker", k[0], "outcome", k[1]), Value: float64(n)})
	}
	m.mu.Unlock()
	metrics.SortByLabels(fam.Samples)
	return fam
}

// Collect returns the coordinator's cluster families — the fleet gauge
// (by state), per-worker heartbeat age, the dispatch/requeue/steal/
// eviction counters — then the federated fleet families. Installed on
// the engine server via engine.WithCollector.
func (c *Coordinator) Collect() []metrics.Family {
	var active, draining float64
	age := metrics.Family{Name: "womd_cluster_heartbeat_age_seconds", Type: "gauge",
		Help: "Time since each worker's last heartbeat."}
	c.mu.Lock()
	for _, ws := range c.workers {
		if ws.draining {
			draining++
		} else {
			active++
		}
		age.Samples = append(age.Samples, metrics.Sample{Labels: metrics.Labels("worker", ws.id),
			Value: float64(c.now().Sub(ws.lastBeat).Milliseconds()) / 1000})
	}
	c.mu.Unlock()
	metrics.SortByLabels(age.Samples)
	m := c.metrics
	fams := []metrics.Family{
		{Name: "womd_cluster_workers", Help: "Registered cluster workers by state.", Type: "gauge",
			Samples: []metrics.Sample{
				{Labels: metrics.Labels("state", "active"), Value: active},
				{Labels: metrics.Labels("state", "draining"), Value: draining},
			}},
		age,
		m.dispatchFamily(),
		metrics.Counter("womd_cluster_requeue_total", "Jobs re-routed after a worker failure or eviction.",
			float64(m.Requeues.Load())),
		metrics.Counter("womd_cluster_steals_total", "Queued jobs stolen back for rebalancing.",
			float64(m.Steals.Load())),
		metrics.Counter("womd_cluster_evictions_total", "Workers evicted on heartbeat timeout.",
			float64(m.Evictions.Load())),
	}
	return append(fams, c.federatedFamilies()...)
}
