package memctrl

// PCM-refresh engine (§3.2). Every RefreshPeriod the controller scans the
// ranks round-robin, picks the first idle rank meeting the r_th threshold,
// and issues a burst-mode refresh: each bank with a tracked at-limit row
// reads it out and rewrites it in the WOM first-write pattern, occupying
// the rank's banks for t_WR + N_bank·L_burst/2. Demand accesses arriving at
// a refreshing bank preempt it (write pausing, see preemptRefresh).
//
// In WCPCM the refresh targets the per-rank WOM-cache arrays instead — the
// paper's cache is "wide-column design with PCM-refresh" — and the main
// memory, being conventional PCM, needs none.

import "womcpcm/internal/probe"

// emitRefreshStart publishes a bank (or cache array) beginning to refresh
// row at now — as a resume when write pausing previously preempted the same
// row, as a fresh start otherwise.
func (c *Controller) emitRefreshStart(s *server, row int, now Clock) {
	kind := probe.RefreshStarted
	if row == s.abortedRow {
		kind = probe.RefreshResumed
		s.abortedRow = -1
	}
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: now, Kind: kind, Rank: s.rank, Bank: s.idx, Row: row})
	}
}

// refreshTick runs one scheduling point and re-arms the next while the
// simulation still has work.
func (c *Controller) refreshTick(now Clock) {
	if c.onTick != nil {
		c.onTick(now)
	}
	if c.cfg.Cache != nil {
		c.cacheRefreshTick(now)
	} else if c.cfg.Refresh != nil {
		c.mainRefreshTick(now)
	}
	if !(c.arrivalsDone && c.inFlight == 0) {
		c.schedule(event{time: now + c.cfg.Timing.RefreshPeriod, kind: evRefreshTick})
	}
}

// mainRefreshTick refreshes idle eligible ranks, scanning round-robin from
// the rotating pointer and honoring MaxRanksPerTick (0 = no bound).
func (c *Controller) mainRefreshTick(now Clock) {
	ranks := c.cfg.Geometry.Ranks
	budget := c.cfg.Refresh.MaxRanksPerTick
	if budget <= 0 || budget > ranks {
		budget = ranks
	}
	issued := 0
	for i := 0; i < ranks && issued < budget; i++ {
		r := (c.rrNext + i) % ranks
		if c.rankEligible(r) {
			c.startRankRefresh(r, now)
			issued++
			if issued == budget {
				c.rrNext = (r + 1) % ranks
			}
		}
	}
}

// rankEligible implements the idle-rank and r_th checks from the rank's
// counters: no bank busy, queued or refreshing, and at least need banks
// with a candidate row. (A quiescent bank is also past its busyUntil; see
// server.quiescent.)
func (c *Controller) rankEligible(rank int) bool {
	r := c.ranks[rank]
	return r.busy == 0 && int(r.cands) >= c.need
}

// startRankRefresh issues the burst-mode refresh command: every bank of the
// rank is occupied for t_WR + N_bank·L_burst/2; banks with a tracked
// at-limit row rewrite it, the others merely participate in the burst.
// Write pausing can preempt any of them individually.
func (c *Controller) startRankRefresh(rank int, now Clock) {
	end := now + c.cfg.Timing.RefreshLatency(c.cfg.Geometry.BanksPerRank)
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: now, Kind: probe.RefreshScheduled, Rank: rank, Bank: -1, Row: -1})
	}
	banks := c.rankBanks(rank)
	for i := range banks {
		s := &banks[i]
		row, ok := s.wom.popCandidate()
		if !ok {
			row = -1
		}
		s.refreshPending = true
		s.refreshRow = row
		s.refreshStart = now
		s.refreshEnd = end
		s.busyUntil = end
		if row >= 0 {
			c.emitRefreshStart(s, row, now)
		}
		c.settle(s)
	}
	c.schedule(event{time: end, kind: evRefreshDone, target: int32(rank)})
}

// refreshDone commits the refreshes that were not preempted.
func (c *Controller) refreshDone(rank int, now Clock) {
	banks := c.rankBanks(rank)
	for i := range banks {
		s := &banks[i]
		if s.refreshPending && s.refreshEnd == now {
			s.refreshPending = false
			if s.refreshRow >= 0 {
				s.wom.commitRefresh(&c.rows, s.refreshRow)
				c.run.Refreshes++
				if c.probe != nil {
					c.probe.Emit(probe.Event{Time: s.refreshStart, Dur: now - s.refreshStart,
						Kind: probe.RefreshCompleted, Rank: s.rank, Bank: s.idx, Row: s.refreshRow})
				}
			}
			c.dispatchBank(s, now)
		}
	}
}

// cacheRefreshTick refreshes every idle WOM-cache array with a pending
// candidate; the threshold concept degenerates to "has at least one
// candidate" for the single per-rank array.
func (c *Controller) cacheRefreshTick(now Clock) {
	for r := range c.caches {
		ca := &c.caches[r]
		if ca.wom.k == 0 {
			continue // DRAM cache arrays need no PCM-refresh
		}
		if ca.idleAt(now) && ca.wom.hasCandidates() {
			row, _ := ca.wom.popCandidate()
			ca.refreshPending = true
			ca.refreshRow = row
			ca.refreshStart = now
			ca.refreshEnd = now + c.cfg.Timing.RowWrite + c.cfg.Timing.Burst
			ca.busyUntil = ca.refreshEnd
			if c.probe != nil {
				c.probe.Emit(probe.Event{Time: now, Kind: probe.RefreshScheduled, Rank: r, Bank: -1, Row: -1})
			}
			c.emitRefreshStart(ca, row, now)
			c.schedule(event{time: ca.refreshEnd, kind: evCacheRefreshDone, target: int32(r)})
		}
	}
}

// cacheRefreshDone commits a cache array refresh unless preempted.
func (c *Controller) cacheRefreshDone(rank int, now Clock) {
	ca := &c.caches[rank]
	if ca.refreshPending && ca.refreshEnd == now {
		ca.refreshPending = false
		ca.wom.commitRefresh(&c.cacheRows, ca.refreshRow)
		c.run.Refreshes++
		if c.probe != nil {
			c.probe.Emit(probe.Event{Time: ca.refreshStart, Dur: now - ca.refreshStart,
				Kind: probe.RefreshCompleted, Rank: ca.rank, Bank: ca.idx, Row: ca.refreshRow})
		}
		c.dispatchCache(ca, now)
	}
}
