package sched

import "time"

// SLOHorizon is the attainment ring's reach: long enough to answer the
// slowest burn-rate window (30 m = 1800 s) with slack, small enough
// (~32 KiB/tenant) to keep per tenant forever. WindowSLO answers no
// longer window, and SeedSLO ignores older seconds.
const SLOHorizon = sloRingSeconds * time.Second

// sloRingSeconds is SLOHorizon in the ring's one-second buckets.
const sloRingSeconds = 2048

// sloRing is a per-second ring of SLO outcomes observed at dequeue. Each
// bucket remembers which absolute second it holds (secs), so stale buckets
// from a previous lap are simply ignored by window sums — no clearing
// sweep, no background work on an idle tenant. Not safe for concurrent
// use; the Scheduler's mutex guards it.
type sloRing struct {
	secs  []int64
	met   []uint32
	total []uint32
}

func newSLORing() *sloRing {
	return &sloRing{
		secs:  make([]int64, sloRingSeconds),
		met:   make([]uint32, sloRingSeconds),
		total: make([]uint32, sloRingSeconds),
	}
}

// observe records one dequeue outcome in the bucket for Unix second sec,
// recycling the slot if it still holds a previous lap's second.
func (r *sloRing) observe(sec int64, ok bool) {
	i := int(sec % int64(len(r.secs)))
	if i < 0 {
		i += len(r.secs)
	}
	if r.secs[i] != sec {
		r.secs[i] = sec
		r.met[i], r.total[i] = 0, 0
	}
	r.total[i]++
	if ok {
		r.met[i]++
	}
}

// seed installs a backfilled outcome count for Unix second sec. Live
// data wins: a bucket already stamped with sec and holding observations
// keeps them, so a history-derived backfill can never double-count
// dequeues observed after a restart.
func (r *sloRing) seed(sec int64, met, total uint32) {
	i := int(sec % int64(len(r.secs)))
	if i < 0 {
		i += len(r.secs)
	}
	if r.secs[i] == sec && r.total[i] > 0 {
		return
	}
	r.secs[i] = sec
	r.met[i], r.total[i] = met, total
}

// window sums the trailing `seconds` buckets ending at Unix second nowSec
// (inclusive), clamped to the ring's horizon. Buckets whose stamp does not
// match the queried second — never written, or overwritten by a later lap
// — contribute nothing.
func (r *sloRing) window(nowSec int64, seconds int) (met, total uint64) {
	if seconds < 1 {
		seconds = 1
	}
	if seconds > len(r.secs) {
		seconds = len(r.secs)
	}
	for q := nowSec - int64(seconds) + 1; q <= nowSec; q++ {
		i := int(q % int64(len(r.secs)))
		if i < 0 {
			i += len(r.secs)
		}
		if r.secs[i] == q {
			met += uint64(r.met[i])
			total += uint64(r.total[i])
		}
	}
	return met, total
}

// attainment is met/total over the window, vacuously 1 when the window saw
// no dequeues (an SLO with no traffic is met).
func (r *sloRing) attainment(nowSec int64, seconds int) float64 {
	met, total := r.window(nowSec, seconds)
	if total == 0 {
		return 1
	}
	return float64(met) / float64(total)
}

// WindowSLO reports the named tenant's dequeue outcomes over the trailing
// window (clamped to the ring horizon, ~34 min): how many started within
// their deadline and how many were dequeued at all. ok is false for an
// unknown tenant. This is the burn-rate input for internal/health.
func (s *Scheduler) WindowSLO(tenant string, window time.Duration) (met, total uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, found := s.ten[tenant]
	if !found {
		return 0, 0, false
	}
	met, total = t.slo.window(s.now().Unix(), int(window/time.Second))
	return met, total, true
}

// SeedSLO backfills one second of a tenant's SLO ring from persisted
// metric history, so burn-rate windows are warm immediately after a
// restart instead of waiting a full window for live traffic to refill
// them. Seconds outside the ring horizon (or in the future) are ignored,
// and buckets that already hold live post-restart observations are left
// untouched. Returns false for an unknown or removed tenant.
func (s *Scheduler) SeedSLO(tenant string, sec int64, met, total uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, found := s.ten[tenant]
	if !found || t.removed {
		return false
	}
	now := s.now().Unix()
	if total == 0 || sec > now || sec <= now-int64(sloRingSeconds) {
		return true // nothing to seed, but the tenant exists
	}
	if met > total {
		met = total
	}
	const maxBucket = 1<<32 - 1
	if total > maxBucket {
		total = maxBucket
	}
	if met > maxBucket {
		met = maxBucket
	}
	t.slo.seed(sec, uint32(met), uint32(total))
	return true
}

// MaxDepth reports the configured global queue bound — the capacity behind
// readiness saturation checks.
func (s *Scheduler) MaxDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.MaxDepth
}
