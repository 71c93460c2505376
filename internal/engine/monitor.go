package engine

import (
	"sort"
	"time"

	"womcpcm/internal/perfmon"
)

// This file is the automatic slow-job profiler: a monitor goroutine that
// samples every running job's rolling event rate and captures CPU+heap
// pprof profiles (into cfg.Profiles) from jobs that are struggling. Two
// triggers, checked every monitorInterval:
//
//   - slow: the job's rolling events/sec over the last pass dropped below
//     slowFraction of the running jobs' median. Needs ≥2 running jobs — with one
//     job the median is the job itself and the comparison is vacuous.
//   - deadline: a job with a timeout has consumed deadlineFraction of it.
//     It is about to be killed; the profile is the post-mortem.
//
// Each job is profiled at most once (job.profiled latch): profiles answer
// "why is this job slow", and a second capture of the same job buys little
// while costing a StartCPUProfile window that is process-global.
//
// The monitor reads only atomics (span live counters, job state) and never
// blocks job execution.

// The monitor's policy constants.
const (
	// monitorInterval spaces monitor passes.
	monitorInterval = 15 * time.Second
	// slowFraction triggers a capture when a job's rolling rate drops below
	// this fraction of the running jobs' median.
	slowFraction = 0.25
	// deadlineFraction triggers a capture when a job with a timeout has
	// consumed this fraction of it — about to be killed is the last
	// chance to see why it was slow.
	deadlineFraction = 0.9
)

// slowSample is one running job's observation for a monitor pass.
type slowSample struct {
	id       string
	rate     float64 // events/sec since the previous pass
	elapsed  time.Duration
	timeout  time.Duration // 0 = unbounded
	eligible bool          // rate is meaningful (job was seen last pass too)
}

// slowVerdicts applies the trigger rules to one pass's samples and returns
// jobID → reason for every job that should be profiled. Pure function so the
// policy is testable without goroutines or clocks.
func slowVerdicts(samples []slowSample, slowFrac, deadlineFrac float64) map[string]string {
	out := make(map[string]string)
	for _, s := range samples {
		if s.timeout > 0 && s.elapsed >= time.Duration(deadlineFrac*float64(s.timeout)) {
			out[s.id] = "deadline"
		}
	}
	// Median over jobs with a measured rate; the slow rule needs other jobs to
	// compare against, so fewer than two eligible jobs disables it.
	rates := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.eligible {
			rates = append(rates, s.rate)
		}
	}
	if len(rates) < 2 {
		return out
	}
	sort.Float64s(rates)
	median := rates[len(rates)/2]
	if len(rates)%2 == 0 {
		median = (rates[len(rates)/2-1] + rates[len(rates)/2]) / 2
	}
	if median <= 0 {
		return out
	}
	for _, s := range samples {
		if _, dup := out[s.id]; dup {
			continue // deadline outranks slow
		}
		if s.eligible && s.rate < slowFrac*median {
			out[s.id] = "slow"
		}
	}
	return out
}

// monitor is the goroutine body; started by New when cfg.Profiles is set,
// stopped by Shutdown via monStop.
func (m *Manager) monitor() {
	defer close(m.monDone)
	ticker := time.NewTicker(monitorInterval)
	defer ticker.Stop()
	last := make(map[string]int64) // jobID → live event count at previous pass
	for {
		select {
		case <-m.monStop:
			return
		case <-ticker.C:
			m.monitorPass(last, monitorInterval)
		}
	}
}

// monitorPass samples running jobs, applies the policy, and captures
// profiles for flagged jobs that have not been profiled yet.
func (m *Manager) monitorPass(last map[string]int64, interval time.Duration) {
	running := make(map[string]*Job)
	var samples []slowSample
	for _, job := range m.Jobs() {
		if job.State() != StateRunning {
			continue
		}
		span := job.span.Load()
		if span == nil {
			continue // not yet started
		}
		live := span.LiveEvents()
		prev, seen := last[job.id]
		s := slowSample{
			id:       job.id,
			elapsed:  span.Elapsed(),
			timeout:  job.timeout,
			eligible: seen,
		}
		if seen {
			s.rate = float64(live-prev) / interval.Seconds()
		}
		last[job.id] = live
		running[job.id] = job
		samples = append(samples, s)
	}
	// Forget finished jobs so ids are not compared across restarts of the
	// same key and the map stays bounded by the running set.
	for id := range last {
		if _, ok := running[id]; !ok {
			delete(last, id)
		}
	}
	for id, reason := range slowVerdicts(samples, slowFraction, deadlineFraction) {
		job := running[id]
		if !job.profiled.CompareAndSwap(false, true) {
			continue // already captured once
		}
		caps, err := m.cfg.Profiles.Capture(job.id, job.trace.TraceID, reason, perfmon.DefaultCPUProfileDuration)
		if err != nil {
			// ErrBusy or I/O trouble: release the latch so a later pass can
			// retry while the job is still running.
			job.profiled.Store(false)
			m.log.Warn("slow-job profile capture failed", "job", job.id,
				"reason", reason, "error", err.Error())
			continue
		}
		m.metrics.ProfilesCaptured.Add(uint64(len(caps)))
		// The slow job itself is the exemplar a slow_jobs alert should
		// point at, not whichever job settled last.
		m.exemplars.Observe("slow", job.id, job.trace.TraceID)
		m.log.Info("slow-job profiles captured", "job", job.id,
			"reason", reason, "profiles", len(caps))
	}
}
