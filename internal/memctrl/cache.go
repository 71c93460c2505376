package memctrl

import (
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// A rank's WOM-cache (§4) is a wide-column WOM-code PCM array with as many
// rows as a main-memory bank, fronting the rank's banks as an N_bank-way
// write cache. The tag of a cached row is the bank address it belongs to;
// a single valid bit completes the selector field. Both live in the
// controller's cacheRows table beside the row's WOM generation.
//
// The array is a server: it services one access at a time with its own
// FIFO queue, and participates in PCM-refresh.

// dispatchCache starts service on a rank's WOM-cache array if possible.
func (c *Controller) dispatchCache(ca *server, now Clock) {
	if ca.inService != 0 || ca.empty() {
		return
	}
	if ca.refreshPending && ca.refreshEnd > now {
		c.preemptRefresh(ca, now)
	}
	i := ca.pop(c.reqs)
	req := &c.reqs[i]
	start := now
	if ca.busyUntil > start {
		start = ca.busyUntil
	}
	dur := c.cacheService(ca, req, start)
	ca.inService = i
	ca.busyUntil = start + dur
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: start, Dur: dur, Kind: probe.BankBusy,
			Rank: ca.rank, Bank: ca.idx, Row: req.Loc.Row})
	}
	c.schedule(event{time: start + dur, kind: evCacheComplete, target: int32(ca.rank)})
}

// cacheService resolves a cache access at dispatch time and returns its
// service duration. The cache array is itself a write-through PCM array
// with a row buffer: reads to the open row skip the array access, and
// every write programs the cells after activating its row if needed — the
// activation also reads out the victim on a tag miss (§4: "the controller
// first outputs the current data and the bank address to a register").
func (c *Controller) cacheService(ca *server, req *Request, start Clock) Clock {
	t := c.cfg.Timing
	row := req.Loc.Row
	var dur Clock
	if ca.openRow != row {
		dur += t.RowRead
		ca.openRow = row
	}

	if req.Op == trace.Read {
		// Read hit, classified at routing time; the activation above (or
		// the already-open row) services it.
		return dur + t.Column + t.Burst
	}

	e := c.cacheRows.at(row, ca.rank)
	action := probe.CacheHit
	if !e.valid {
		action = probe.CacheFill
	}
	if !e.valid || int(e.tag) == req.Loc.Bank {
		// §4: valid bit invalid, or tag matches — program in place.
		c.run.CacheHits++
		req.class = stats.WriteCacheHit
	} else {
		// §4: the victim row is in the buffer; it moves to the write-back
		// register and its write request is inserted into the main-memory
		// queue at completion.
		c.run.CacheMisses++
		req.class = stats.WriteCacheMiss
		req.spawnVictim = true
		req.victimBank = int(e.tag)
		action = probe.CacheEvict
	}
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: start, Kind: action, Rank: ca.rank, Bank: ca.idx, Row: row})
	}
	if ca.wom.k > 0 {
		// One WOM-coded array row write, consuming the row's budget.
		if c.probe != nil {
			c.probe.Emit(probe.Event{Time: start, Kind: womWriteKind(&ca.wom, &c.cacheRows, row),
				Rank: ca.rank, Bank: ca.idx, Row: row})
		}
		if ca.wom.write(&c.cacheRows, row) {
			c.run.Class(stats.WriteFast)
			dur += t.Reset
		} else {
			c.run.Class(stats.WriteAlpha)
			dur += t.RowWrite
		}
	}
	// A DRAM cache array absorbs the write at row-buffer speed: no PCM
	// programming pulse at all.
	e.tag, e.valid = int32(req.Loc.Bank), true
	return dur + t.Column + t.Burst
}
