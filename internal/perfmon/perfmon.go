// Package perfmon is the host-time performance observability layer of the
// reproduction: where internal/probe and internal/telemetry measure
// *simulated* nanoseconds, perfmon measures what the simulator costs the
// machine it runs on — wall-clock per job, simulated-events per host second,
// bytes allocated, GC assist time — the figures behind the ROADMAP's "as
// fast as the hardware allows" goal.
//
// Three layers:
//
//	Span / JobRecord    per-job accounting via runtime/metrics deltas
//	CollectRuntime      womd_runtime_* families, read at scrape time
//	ProfileStore        pprof captures of slow jobs
package perfmon

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// spanSampleNames are the runtime/metrics counters a Span deltas around a
// job. All three are cumulative process-wide counters, so under concurrent
// jobs a record attributes shared process activity to whichever spans cover
// it — per-job numbers are attribution, not isolation; the same caveat as
// every process-scoped profiler.
var spanSampleNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
}

const (
	sampleAllocBytes = iota
	sampleAllocObjects
	sampleGCAssist
)

// JobRecord is one job's host-time performance accounting, attached to job
// results (JobView.Perf).
type JobRecord struct {
	// WallNs is the job's wall-clock duration.
	WallNs int64 `json:"wall_ns"`
	// SimEvents counts simulator event-loop steps the job executed (see
	// stats.Run.Events); 0 when the job ran no simulations.
	SimEvents int64 `json:"sim_events"`
	// EventsPerSec is SimEvents per wall-clock second — the throughput
	// figure the slow-job detector tracks.
	EventsPerSec float64 `json:"events_per_sec"`
	// NsPerEvent is the inverse: host nanoseconds per simulated event.
	NsPerEvent float64 `json:"ns_per_event"`
	// AllocBytes and AllocObjects are heap allocation deltas over the span
	// (process-wide; see the attribution caveat above).
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// GCAssistNs is CPU time goroutines spent assisting the garbage
	// collector during the span — allocation pressure made visible.
	GCAssistNs int64 `json:"gc_assist_ns"`
	// CPUNs is the process CPU time (user+system) consumed during the span.
	CPUNs int64 `json:"cpu_ns"`
}

// Span measures one job. Begin samples the runtime counters; End samples
// them again and returns the deltas.
type Span struct {
	start   time.Time
	cpu     int64
	events  atomic.Int64
	samples [len(spanSampleNames)]metrics.Sample
}

// Begin starts a span. The returned span's Events counter can be attached
// to simulations (sim.WithSimEvents) so the span observes live progress.
func Begin() *Span {
	s := &Span{}
	for i, name := range spanSampleNames {
		s.samples[i].Name = name
	}
	metrics.Read(s.samples[:])
	s.cpu = processCPUNs()
	s.start = time.Now()
	return s
}

// Events returns the span's live simulated-event counter, for
// sim.WithSimEvents.
func (s *Span) Events() *atomic.Int64 { return &s.events }

// LiveEvents returns the events counted so far.
func (s *Span) LiveEvents() int64 { return s.events.Load() }

// Elapsed returns the wall time since Begin.
func (s *Span) Elapsed() time.Duration { return time.Since(s.start) }

// End closes the span and returns the job's record.
func (s *Span) End() JobRecord {
	wall := time.Since(s.start)
	cpu := processCPUNs()
	var after [len(spanSampleNames)]metrics.Sample
	for i, name := range spanSampleNames {
		after[i].Name = name
	}
	metrics.Read(after[:])
	rec := JobRecord{
		WallNs:       wall.Nanoseconds(),
		SimEvents:    s.events.Load(),
		AllocBytes:   counterDelta(after[sampleAllocBytes], s.samples[sampleAllocBytes]),
		AllocObjects: counterDelta(after[sampleAllocObjects], s.samples[sampleAllocObjects]),
		GCAssistNs:   int64(1e9 * (after[sampleGCAssist].Value.Float64() - s.samples[sampleGCAssist].Value.Float64())),
	}
	if cpu > 0 && s.cpu > 0 && cpu >= s.cpu {
		rec.CPUNs = cpu - s.cpu
	}
	rec.EventsPerSec, rec.NsPerEvent = Rates(rec.SimEvents, wall)
	return rec
}

// Rates derives (events/sec, ns/event) from an event count and a wall
// duration, 0 when either side is empty.
func Rates(events int64, wall time.Duration) (perSec, nsPer float64) {
	if events <= 0 || wall <= 0 {
		return 0, 0
	}
	return float64(events) / wall.Seconds(), float64(wall.Nanoseconds()) / float64(events)
}

// counterDelta subtracts two uint64 runtime/metrics samples, clamping at 0.
func counterDelta(after, before metrics.Sample) uint64 {
	a, b := after.Value.Uint64(), before.Value.Uint64()
	if a < b {
		return 0
	}
	return a - b
}
