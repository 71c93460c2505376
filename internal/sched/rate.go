package sched

import "time"

// rateTracker observes dequeue times and estimates a queue's drain rate as
// an EWMA of inter-dequeue intervals. Shed responses turn it into a
// Retry-After: how long until the backlog excess ahead of a retried
// submission will have drained. It is unsynchronized — the scheduler
// guards it with its own lock.
type rateTracker struct {
	last   time.Time
	ewmaNs float64 // smoothed nanoseconds per dequeue; 0 = no observation yet
}

// ewmaAlpha weights the newest interval; ~0.2 reacts within a few dequeues
// without tracking every jitter.
const ewmaAlpha = 0.2

// Observe records one dequeue at t.
func (r *rateTracker) Observe(t time.Time) {
	if !r.last.IsZero() {
		iv := float64(t.Sub(r.last).Nanoseconds())
		if iv < 1 {
			iv = 1
		}
		if r.ewmaNs == 0 {
			r.ewmaNs = iv
		} else {
			r.ewmaNs = ewmaAlpha*iv + (1-ewmaAlpha)*r.ewmaNs
		}
	}
	r.last = t
}

// RetryAfter estimates when excess items will have drained, clamped to
// [minRetryAfter, maxRetryAfter]. With no drain observed yet (a queue that
// filled before anything was dequeued) it reports the minimum — the
// honest answer is "soon, probably", not a 60 s lockout.
func (r *rateTracker) RetryAfter(excess int) time.Duration {
	if excess < 1 {
		excess = 1
	}
	if r.ewmaNs <= 0 {
		return minRetryAfter
	}
	d := time.Duration(float64(excess) * r.ewmaNs)
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}
