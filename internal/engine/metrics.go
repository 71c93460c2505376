package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"womcpcm/internal/metrics"
	"womcpcm/internal/perfmon"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
)

// Metrics aggregates the service counters the /metrics endpoint exports.
// Counters are monotonic over the process lifetime; QueueDepth and Running
// are gauges. Wall-time distributions reuse the simulator's log2 histogram
// (internal/stats.Latency), one per experiment.
type Metrics struct {
	Queued    atomic.Uint64 // jobs accepted into the queue
	Rejected  atomic.Uint64 // jobs refused by admission control
	Completed atomic.Uint64 // jobs that succeeded
	Failed    atomic.Uint64 // jobs that errored or timed out
	Canceled  atomic.Uint64 // jobs canceled (queued or running)

	CacheHits   atomic.Uint64 // submissions served from the result store
	CacheMisses atomic.Uint64 // cacheable submissions not found in the store
	Deduped     atomic.Uint64 // submissions folded into an identical in-flight job
	StoreErrors atomic.Uint64 // failed result-store appends (job still succeeds)

	// WriteClasses counts simulated row writes by probe write kind across
	// every executed job (fed per-simulation via sim.WithClassCounts).
	WriteClasses [probe.NumWriteKinds]atomic.Uint64
	// SimEvents counts simulator event-loop steps across every executed
	// job; ProfilesCaptured counts slow-job pprof captures.
	SimEvents        atomic.Uint64
	ProfilesCaptured atomic.Uint64
	// StreamDropped counts SSE events lost to full subscriber buffers;
	// StreamClients gauges connected stream subscribers.
	StreamDropped atomic.Uint64
	StreamClients atomic.Int64

	QueueDepth atomic.Int64 // jobs waiting for a worker
	Running    atomic.Int64 // jobs executing now

	start time.Time // process start, for the uptime gauge

	mu        sync.Mutex
	wall      map[string]*stats.Latency // experiment → wall-time histogram
	queueWait stats.Latency             // admission → worker-start latency
	// Per-experiment host-time distributions (internal/perfmon records):
	// events/sec, CPU nanoseconds, allocated bytes.
	perfEvents map[string]*stats.Latency
	perfCPU    map[string]*stats.Latency
	perfAlloc  map[string]*stats.Latency
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		start:      time.Now(),
		wall:       make(map[string]*stats.Latency),
		perfEvents: make(map[string]*stats.Latency),
		perfCPU:    make(map[string]*stats.Latency),
		perfAlloc:  make(map[string]*stats.Latency),
	}
}

// Uptime reports the time since the metrics set was created — in practice,
// since the manager (and so the service) started.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }

// AddWriteClasses folds one simulation's write-class totals into the
// service counters; it is the manager's sim.ClassCountsFunc.
func (m *Metrics) AddWriteClasses(counts [probe.NumWriteKinds]uint64) {
	for k, n := range counts {
		if n > 0 {
			m.WriteClasses[k].Add(n)
		}
	}
}

// ObserveWall records one job's wall time under its experiment name.
func (m *Metrics) ObserveWall(experiment string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.wall[experiment]
	if l == nil {
		l = &stats.Latency{}
		m.wall[experiment] = l
	}
	l.Observe(d.Nanoseconds())
}

// ObserveQueueWait records one job's admission→worker-start latency.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWait.Observe(d.Nanoseconds())
}

// QueueWaitSnapshot exports the queue-wait histogram.
func (m *Metrics) QueueWaitSnapshot() stats.LatencySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queueWait.Snapshot()
}

// ObservePerf folds one finished job's host-time record into the
// per-experiment distributions and the event counter.
func (m *Metrics) ObservePerf(experiment string, rec perfmon.JobRecord) {
	if rec.SimEvents > 0 {
		m.SimEvents.Add(uint64(rec.SimEvents))
	}
	observe := func(hists map[string]*stats.Latency, v int64) {
		l := hists[experiment]
		if l == nil {
			l = &stats.Latency{}
			hists[experiment] = l
		}
		l.Observe(v)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	observe(m.perfEvents, int64(rec.EventsPerSec))
	observe(m.perfCPU, rec.CPUNs)
	observe(m.perfAlloc, int64(rec.AllocBytes))
}

// perfSnapshot exports one per-experiment histogram family.
func (m *Metrics) perfSnapshot(hists map[string]*stats.Latency) map[string]stats.LatencySnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]stats.LatencySnapshot, len(hists))
	for exp, l := range hists {
		out[exp] = l.Snapshot()
	}
	return out
}

// WallSnapshot exports the per-experiment wall-time histograms.
func (m *Metrics) WallSnapshot() map[string]stats.LatencySnapshot { return m.perfSnapshot(m.wall) }

// Snapshot is the JSON form of the metrics set.
type Snapshot struct {
	JobsQueued    uint64 `json:"jobs_queued_total"`
	JobsRejected  uint64 `json:"jobs_rejected_total"`
	JobsCompleted uint64 `json:"jobs_completed_total"`
	JobsFailed    uint64 `json:"jobs_failed_total"`
	JobsCanceled  uint64 `json:"jobs_canceled_total"`
	CacheHits     uint64 `json:"cache_hits_total"`
	CacheMisses   uint64 `json:"cache_misses_total"`
	JobsDeduped   uint64 `json:"jobs_deduped_total"`
	StoreErrors   uint64 `json:"store_errors_total"`
	QueueDepth    int64  `json:"queue_depth"`
	JobsRunning   int64  `json:"jobs_running"`

	// WritesTotal maps write class name → simulated row writes across jobs.
	WritesTotal   map[string]uint64 `json:"writes_total"`
	StreamDropped uint64            `json:"stream_dropped_total"`
	StreamClients int64             `json:"stream_clients"`

	UptimeSeconds float64 `json:"uptime_seconds"`

	WallNs map[string]stats.LatencySnapshot `json:"job_wall_ns"`

	// Host-time perf aggregates (internal/perfmon).
	SimEventsTotal   uint64                           `json:"sim_events_total"`
	ProfilesCaptured uint64                           `json:"profiles_captured_total"`
	QueueWaitNs      stats.LatencySnapshot            `json:"job_queue_wait_ns"`
	EventsPerSec     map[string]stats.LatencySnapshot `json:"job_events_per_sec"`
	CPUNs            map[string]stats.LatencySnapshot `json:"job_cpu_ns"`
	AllocBytes       map[string]stats.LatencySnapshot `json:"job_alloc_bytes"`
}

// Snapshot captures every counter and histogram at once.
func (m *Metrics) Snapshot() Snapshot {
	writes := make(map[string]uint64, probe.NumWriteKinds)
	for k := 0; k < probe.NumWriteKinds; k++ {
		writes[probe.Kind(k).String()] = m.WriteClasses[k].Load()
	}
	return Snapshot{
		JobsQueued:    m.Queued.Load(),
		JobsRejected:  m.Rejected.Load(),
		JobsCompleted: m.Completed.Load(),
		JobsFailed:    m.Failed.Load(),
		JobsCanceled:  m.Canceled.Load(),
		CacheHits:     m.CacheHits.Load(),
		CacheMisses:   m.CacheMisses.Load(),
		JobsDeduped:   m.Deduped.Load(),
		StoreErrors:   m.StoreErrors.Load(),
		QueueDepth:    m.QueueDepth.Load(),
		JobsRunning:   m.Running.Load(),
		WritesTotal:   writes,
		StreamDropped: m.StreamDropped.Load(),
		StreamClients: m.StreamClients.Load(),
		UptimeSeconds: m.Uptime().Seconds(),
		WallNs:        m.WallSnapshot(),

		SimEventsTotal:   m.SimEvents.Load(),
		ProfilesCaptured: m.ProfilesCaptured.Load(),
		QueueWaitNs:      m.QueueWaitSnapshot(),
		EventsPerSec:     m.perfSnapshot(m.perfEvents),
		CPUNs:            m.perfSnapshot(m.perfCPU),
		AllocBytes:       m.perfSnapshot(m.perfAlloc),
	}
}

// Collect returns the service families GET /metrics exposes.
func (m *Metrics) Collect() []metrics.Family {
	counter := func(name, help string, v uint64) metrics.Family {
		return metrics.Counter(name, help, float64(v))
	}
	gauge := func(name, help string, v int64) metrics.Family {
		return metrics.Gauge(name, help, float64(v))
	}
	writes := metrics.Family{Name: "womd_writes_total", Type: "counter",
		Help: "Simulated row writes by class across executed jobs."}
	for k := 0; k < probe.NumWriteKinds; k++ {
		writes.Samples = append(writes.Samples, metrics.Sample{
			Labels: metrics.Labels("class", probe.Kind(k).String()),
			Value:  float64(m.WriteClasses[k].Load()),
		})
	}
	goVersion, revision := buildInfo()
	fams := []metrics.Family{
		counter("womd_jobs_queued_total", "Jobs accepted into the queue.", m.Queued.Load()),
		counter("womd_jobs_rejected_total", "Jobs refused by admission control.", m.Rejected.Load()),
		counter("womd_jobs_completed_total", "Jobs that succeeded.", m.Completed.Load()),
		counter("womd_jobs_failed_total", "Jobs that errored or timed out.", m.Failed.Load()),
		counter("womd_jobs_canceled_total", "Jobs canceled before or during execution.", m.Canceled.Load()),
		counter("womd_cache_hits_total", "Submissions served from the result store.", m.CacheHits.Load()),
		counter("womd_cache_misses_total", "Cacheable submissions not found in the store.", m.CacheMisses.Load()),
		counter("womd_jobs_deduped_total", "Submissions folded into an identical in-flight job.", m.Deduped.Load()),
		counter("womd_store_errors_total", "Failed result-store appends.", m.StoreErrors.Load()),
		writes,
		counter("womd_stream_dropped_total", "SSE stream events lost to full subscriber buffers.", m.StreamDropped.Load()),
		gauge("womd_stream_clients", "Connected SSE stream subscribers.", m.StreamClients.Load()),
		gauge("womd_queue_depth", "Jobs waiting for a worker.", m.QueueDepth.Load()),
		gauge("womd_jobs_running", "Jobs executing now.", m.Running.Load()),
		metrics.Gauge("womd_uptime_seconds", "Seconds since the service started.", m.Uptime().Seconds()),
		{Name: "womd_build_info", Help: "Build metadata; the value is always 1.", Type: "gauge",
			Samples: []metrics.Sample{{Labels: metrics.Labels("go_version", goVersion, "revision", revision), Value: 1}}},
		counter("womd_job_sim_events_total", "Simulator event-loop steps across executed jobs.", m.SimEvents.Load()),
		counter("womd_profiles_captured_total", "Slow-job pprof captures.", m.ProfilesCaptured.Load()),
		expHistogram("womd_job_wall_seconds", "Per-experiment job wall time.", m.WallSnapshot(), 1e-9),
		expHistogram("womd_job_events_per_second", "Per-experiment simulated-events/sec per job.",
			m.perfSnapshot(m.perfEvents), 1),
		expHistogram("womd_job_cpu_seconds", "Per-experiment process CPU time per job.",
			m.perfSnapshot(m.perfCPU), 1e-9),
		expHistogram("womd_job_alloc_bytes", "Per-experiment heap bytes allocated per job.",
			m.perfSnapshot(m.perfAlloc), 1),
	}
	if qw := m.QueueWaitSnapshot(); qw.Count > 0 {
		fams = append(fams, metrics.Family{Name: "womd_job_queue_wait_seconds", Type: "histogram",
			Help:    "Job latency from admission to worker start.",
			Samples: histogramSamples(nil, qw, 1e-9)})
	}
	return fams
}

// expHistogram builds one per-experiment histogram family, scaling log2
// bucket upper bounds by scale (1e-9 turns nanoseconds into seconds).
func expHistogram(name, help string, snaps map[string]stats.LatencySnapshot, scale float64) metrics.Family {
	exps := make([]string, 0, len(snaps))
	for exp := range snaps {
		exps = append(exps, exp)
	}
	sort.Strings(exps)
	fam := metrics.Family{Name: name, Help: help, Type: "histogram"}
	for _, exp := range exps {
		fam.Samples = append(fam.Samples, histogramSamples(metrics.Labels("experiment", exp), snaps[exp], scale)...)
	}
	return fam
}

// histogramSamples expands one latency snapshot into histogram samples.
func histogramSamples(labels []metrics.Label, s stats.LatencySnapshot, scale float64) []metrics.Sample {
	buckets := make([]metrics.Bucket, len(s.Buckets))
	for i, b := range s.Buckets {
		buckets[i] = metrics.Bucket{Le: float64(b.UpperNs) * scale, Count: b.Count}
	}
	return metrics.Histogram(labels, buckets, s.Count, float64(s.SumNs)*scale)
}
