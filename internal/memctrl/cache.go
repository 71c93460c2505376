package memctrl

import (
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// cacheArray is one rank's WOM-cache (§4): a wide-column WOM-code PCM array
// with as many rows as a main-memory bank, fronting the rank's banks as an
// N_bank-way write cache. The tag of a cached row is the bank address it
// belongs to; a single valid bit completes the selector field.
//
// The array embeds server: it services one access at a time with its own
// FIFO queue, and participates in PCM-refresh.
type cacheArray struct {
	server
	entries map[int]cacheEntry
}

// cacheEntry is the selector field of one cache row.
type cacheEntry struct {
	bank  int
	valid bool
}

func newCacheArray(rank int, cfg Config) *cacheArray {
	ca := &cacheArray{
		server:  server{rank: rank, idx: -1, openRow: -1, abortedRow: -1},
		entries: make(map[int]cacheEntry),
	}
	if cfg.Cache.Technology == WOMCache {
		// Cache arrays are new, factory-erased hardware: fresh start.
		ca.wom = newWOMState(cfg.Cache.Rewrites, cfg.Cache.TableSize, false)
	}
	return ca
}

// dispatchCache starts service on a rank's WOM-cache array if possible.
func (c *Controller) dispatchCache(ca *cacheArray, now Clock) {
	if ca.inService != nil || ca.empty() {
		return
	}
	if ca.refreshPending && ca.refreshEnd > now {
		c.preemptRefresh(&ca.server, now)
	}
	req := ca.pop()
	start := now
	if ca.busyUntil > start {
		start = ca.busyUntil
	}
	dur := c.cacheService(ca, req, start)
	ca.inService = req
	ca.busyUntil = start + dur
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: start, Dur: dur, Kind: probe.BankBusy,
			Rank: ca.rank, Bank: ca.idx, Row: req.Loc.Row})
	}
	c.schedule(event{time: start + dur, kind: evCacheComplete, rank: ca.rank})
}

// cacheService resolves a cache access at dispatch time and returns its
// service duration. The cache array is itself a write-through PCM array
// with a row buffer: reads to the open row skip the array access, and
// every write programs the cells after activating its row if needed — the
// activation also reads out the victim on a tag miss (§4: "the controller
// first outputs the current data and the bank address to a register").
func (c *Controller) cacheService(ca *cacheArray, req *Request, start Clock) Clock {
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

	e, present := ca.entries[row]
	hit := !present || !e.valid || e.bank == req.Loc.Bank
	action := probe.CacheHit
	if !present || !e.valid {
		action = probe.CacheFill
	}
	if hit {
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
		req.victimBank = e.bank
		action = probe.CacheEvict
	}
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: start, Kind: action, Rank: ca.rank, Bank: ca.idx, Row: row})
	}
	if ca.wom != nil {
		if c.probe != nil {
			c.probe.Emit(probe.Event{Time: start, Kind: womWriteKind(ca.wom, row),
				Rank: ca.rank, Bank: ca.idx, Row: row})
		}
		var arrayClass stats.ServiceClass
		dur += c.arrayWrite(ca.wom, row, &arrayClass)
		c.run.Class(arrayClass)
	}
	// A DRAM cache array absorbs the write at row-buffer speed: no PCM
	// programming pulse at all.
	ca.entries[row] = cacheEntry{bank: req.Loc.Bank, valid: true}
	return dur + t.Column + t.Burst
}
