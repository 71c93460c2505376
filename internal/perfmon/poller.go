package perfmon

import (
	"math"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"womcpcm/internal/metrics"
)

// pollerSampleNames are the runtime/metrics series the poller samples each
// interval, in the fixed order the index constants below assume.
var pollerSampleNames = [...]string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/total:bytes",
	"/sched/goroutines:goroutines",
	"/sched/gomaxprocs:threads",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

const (
	pollHeapObjects = iota
	pollHeapUnused
	pollTotalBytes
	pollGoroutines
	pollGomaxprocs
	pollGCCycles
	pollAllocBytes
	pollGCAssist
	pollGCPauses
	pollSchedLatencies
)

// Quantiles summarizes a runtime histogram: upper bounds for the 50th, 90th
// and 99th percentiles plus the sample count. The runtime accumulates these
// histograms over the process lifetime, so the quantiles are
// since-process-start, not per-interval — stable summaries rather than
// noisy windows.
type Quantiles struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Count uint64  `json:"count"`
}

// RuntimeSnapshot is one poll of the Go runtime, the data behind the
// womd_runtime_* families.
type RuntimeSnapshot struct {
	// HeapInUseBytes is live heap memory: objects plus unused spans.
	HeapInUseBytes uint64 `json:"heap_inuse_bytes"`
	// TotalBytes is everything the runtime has mapped from the OS.
	TotalBytes uint64 `json:"memory_total_bytes"`
	// Goroutines and GoMaxProcs gauge scheduler pressure.
	Goroutines uint64 `json:"goroutines"`
	GoMaxProcs uint64 `json:"gomaxprocs"`
	// GCCycles, AllocBytes and GCAssistSeconds are lifetime counters.
	GCCycles        uint64  `json:"gc_cycles_total"`
	AllocBytes      uint64  `json:"alloc_bytes_total"`
	GCAssistSeconds float64 `json:"gc_assist_seconds_total"`
	// GCPause and SchedLatency summarize the runtime's stop-the-world pause
	// and goroutine scheduling latency histograms.
	GCPause      Quantiles `json:"gc_pause_seconds"`
	SchedLatency Quantiles `json:"sched_latency_seconds"`
	// At is when the snapshot was taken.
	At time.Time `json:"at"`
}

// DefaultPollInterval spaces runtime polls; one metrics.Read per interval
// costs microseconds, so the default favors freshness.
const DefaultPollInterval = 5 * time.Second

// Poller periodically samples the Go runtime and serves the latest snapshot
// to /metrics scrapes without making scrapes pay for a metrics.Read.
// Start launches the goroutine (after one synchronous poll, so a snapshot
// always exists); Stop terminates it. Both are idempotent.
type Poller struct {
	interval time.Duration
	snap     atomic.Pointer[RuntimeSnapshot]

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	samples []rtmetrics.Sample
}

// NewPoller builds a poller; interval ≤ 0 selects DefaultPollInterval.
func NewPoller(interval time.Duration) *Poller {
	if interval <= 0 {
		interval = DefaultPollInterval
	}
	p := &Poller{interval: interval, samples: make([]rtmetrics.Sample, len(pollerSampleNames))}
	for i, name := range pollerSampleNames {
		p.samples[i].Name = name
	}
	return p
}

// Start polls once synchronously and then keeps polling on the interval.
func (p *Poller) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	p.poll()
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.run(p.stop, p.done)
}

// Stop terminates the polling goroutine and waits for it to exit.
func (p *Poller) Stop() {
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (p *Poller) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.mu.Lock()
			p.poll()
			p.mu.Unlock()
		}
	}
}

// poll samples the runtime and publishes a fresh snapshot. Callers hold mu
// (the sample slice is reused between polls).
func (p *Poller) poll() {
	rtmetrics.Read(p.samples)
	s := &RuntimeSnapshot{
		HeapInUseBytes:  p.samples[pollHeapObjects].Value.Uint64() + p.samples[pollHeapUnused].Value.Uint64(),
		TotalBytes:      p.samples[pollTotalBytes].Value.Uint64(),
		Goroutines:      p.samples[pollGoroutines].Value.Uint64(),
		GoMaxProcs:      p.samples[pollGomaxprocs].Value.Uint64(),
		GCCycles:        p.samples[pollGCCycles].Value.Uint64(),
		AllocBytes:      p.samples[pollAllocBytes].Value.Uint64(),
		GCAssistSeconds: p.samples[pollGCAssist].Value.Float64(),
		GCPause:         histQuantiles(p.samples[pollGCPauses].Value.Float64Histogram()),
		SchedLatency:    histQuantiles(p.samples[pollSchedLatencies].Value.Float64Histogram()),
		At:              time.Now(),
	}
	p.snap.Store(s)
}

// Snapshot returns the latest poll, or nil before the first Start.
func (p *Poller) Snapshot() *RuntimeSnapshot { return p.snap.Load() }

// histQuantiles summarizes a runtime Float64Histogram. Bucket i counts
// observations in [Buckets[i], Buckets[i+1}); a quantile reports the upper
// bound of the bucket where the cumulative count crosses it.
func histQuantiles(h *rtmetrics.Float64Histogram) Quantiles {
	if h == nil {
		return Quantiles{}
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	q := Quantiles{Count: total}
	if total == 0 {
		return q
	}
	quantile := func(f float64) float64 {
		target := uint64(f * float64(total))
		if target == 0 {
			target = 1
		}
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if cum >= target {
				upper := h.Buckets[i+1]
				// The final bucket's upper bound may be +Inf; report its
				// finite lower bound instead of an unplottable infinity.
				if math.IsInf(upper, 1) {
					return h.Buckets[i]
				}
				return upper
			}
		}
		return h.Buckets[len(h.Buckets)-1]
	}
	q.P50, q.P90, q.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	return q
}

// RuntimeMetricNames lists every womd_runtime_* family Collect returns — the
// poller exposition test asserts each appears in /metrics.
func RuntimeMetricNames() []string {
	return []string{
		"womd_runtime_heap_inuse_bytes",
		"womd_runtime_memory_total_bytes",
		"womd_runtime_goroutines",
		"womd_runtime_gomaxprocs",
		"womd_runtime_gc_cycles_total",
		"womd_runtime_alloc_bytes_total",
		"womd_runtime_gc_assist_seconds_total",
		"womd_runtime_gc_pause_seconds",
		"womd_runtime_sched_latency_seconds",
	}
}

// Collect returns the latest snapshot as womd_runtime_* families; nil
// before the first poll, keeping the TYPE-implies-samples contract.
func (p *Poller) Collect() []metrics.Family {
	s := p.Snapshot()
	if s == nil {
		return nil
	}
	summary := func(name, help string, q Quantiles) metrics.Family {
		return metrics.Family{Name: name, Help: help, Type: "summary", Samples: metrics.Summary(
			[]metrics.Quantile{{Q: 0.5, V: q.P50}, {Q: 0.9, V: q.P90}, {Q: 0.99, V: q.P99}}, q.Count)}
	}
	return []metrics.Family{
		metrics.Gauge("womd_runtime_heap_inuse_bytes", "Live heap memory (objects + unused spans).", float64(s.HeapInUseBytes)),
		metrics.Gauge("womd_runtime_memory_total_bytes", "All memory mapped by the Go runtime.", float64(s.TotalBytes)),
		metrics.Gauge("womd_runtime_goroutines", "Live goroutines.", float64(s.Goroutines)),
		metrics.Gauge("womd_runtime_gomaxprocs", "GOMAXPROCS.", float64(s.GoMaxProcs)),
		metrics.Counter("womd_runtime_gc_cycles_total", "Completed GC cycles.", float64(s.GCCycles)),
		metrics.Counter("womd_runtime_alloc_bytes_total", "Cumulative heap bytes allocated.", float64(s.AllocBytes)),
		metrics.Counter("womd_runtime_gc_assist_seconds_total", "CPU seconds goroutines spent assisting the GC.", s.GCAssistSeconds),
		summary("womd_runtime_gc_pause_seconds", "GC stop-the-world pause quantiles (process lifetime).", s.GCPause),
		summary("womd_runtime_sched_latency_seconds", "Goroutine scheduling latency quantiles (process lifetime).", s.SchedLatency),
	}
}
