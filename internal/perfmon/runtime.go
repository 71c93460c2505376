package perfmon

import (
	"math"
	rtmetrics "runtime/metrics"
	"time"

	"womcpcm/internal/metrics"
)

// runtimeSampleNames are the runtime/metrics series ReadRuntime samples,
// in the fixed order the index constants below assume.
var runtimeSampleNames = [...]string{
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
	rtHeapObjects = iota
	rtHeapUnused
	rtTotalBytes
	rtGoroutines
	rtGomaxprocs
	rtGCCycles
	rtAllocBytes
	rtGCAssist
	rtGCPauses
	rtSchedLatencies
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

// RuntimeSnapshot is one read of the Go runtime, the data behind the
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

// ReadRuntime samples the Go runtime now. One runtime/metrics.Read costs
// microseconds, so scrapes call it directly rather than a background
// goroutine polling ahead of them.
func ReadRuntime() RuntimeSnapshot {
	samples := make([]rtmetrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	return RuntimeSnapshot{
		HeapInUseBytes:  samples[rtHeapObjects].Value.Uint64() + samples[rtHeapUnused].Value.Uint64(),
		TotalBytes:      samples[rtTotalBytes].Value.Uint64(),
		Goroutines:      samples[rtGoroutines].Value.Uint64(),
		GoMaxProcs:      samples[rtGomaxprocs].Value.Uint64(),
		GCCycles:        samples[rtGCCycles].Value.Uint64(),
		AllocBytes:      samples[rtAllocBytes].Value.Uint64(),
		GCAssistSeconds: samples[rtGCAssist].Value.Float64(),
		GCPause:         histQuantiles(samples[rtGCPauses].Value.Float64Histogram()),
		SchedLatency:    histQuantiles(samples[rtSchedLatencies].Value.Float64Histogram()),
		At:              time.Now(),
	}
}

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

// RuntimeMetricNames lists every womd_runtime_* family CollectRuntime
// returns — the exposition tests assert each appears in /metrics.
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

// CollectRuntime reads the runtime (ReadRuntime) and returns the
// womd_runtime_* families, each with its samples.
func CollectRuntime() []metrics.Family {
	s := ReadRuntime()
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
