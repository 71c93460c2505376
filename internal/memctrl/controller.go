package memctrl

import (
	"fmt"
	"math/bits"

	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// Request is one memory access in flight through the controller.
//
// The controller owns every Request. Requests live in a controller-owned
// slab and link to one another by slab index, slot 0 meaning "none", so
// the in-flight state holds no pointers. complete returns a slot to the
// free list; newRequest refills a free slot, or appends one, in place.
// Code holds requests by index: a *Request into the slab is valid only
// until the next newRequest, whose append may move the slab, and nothing
// may keep an index after complete. Probe events receive values, and a
// cache miss spawns its victim before the miss itself completes.
type Request struct {
	// ID orders requests by admission.
	ID uint64
	// Op is the access type.
	Op trace.Op
	// Arrive is the arrival time at the controller (ns).
	Arrive Clock
	// Loc is the decoded physical location.
	Loc pcm.Location
	// Internal marks controller-generated traffic (WOM-cache victim
	// write-backs); internal requests occupy banks but are excluded from
	// the demand latency statistics.
	Internal bool

	class       stats.ServiceClass
	spawnVictim bool
	victimBank  int
	cancels     int
	// next links the request, by slab index, into its server's queue while
	// it waits and into the controller's free list once it has completed.
	next int32
}

// server is one serially serviced resource: a main-memory bank or a rank's
// WOM-cache array. Requests queue FIFO; service begins when the resource
// frees and holds it for the service duration.
type server struct {
	rank, idx int
	// head and tail delimit the queue of waiting requests, linked through
	// Request.next; inService is the request being serviced. All three
	// are slab indices, 0 when empty. The queue owns no storage of its
	// own, so a server that never drains holds only the requests actually
	// waiting.
	head, tail, inService int32
	busyUntil             Clock
	// wom is the array's WOM-code state; wom.k == 0 when the array is not
	// WOM-coded.
	wom womState

	// Write-through row buffer: openRow is the row currently latched (-1
	// when closed). Reads to the open row skip the array access; writes
	// always program the array (the paper's per-write row-write cost) but
	// a write to a non-open row first activates it — the read-modify-write
	// the WOM encoder needs.
	openRow int

	// token invalidates in-flight completion events after a write
	// cancellation: stale events carry an older token and are ignored.
	token uint64

	refreshPending bool
	// busy and cands record what the bank last contributed to its rank's
	// eligibility counters (see settle).
	busy, cands  bool
	refreshRow   int
	refreshStart Clock
	refreshEnd   Clock
	// abortedRow remembers the last refresh row write pausing preempted,
	// so the probe can tell a resumed refresh from a fresh one.
	abortedRow int
}

func (s *server) empty() bool { return s.head == 0 }

func (s *server) enqueue(reqs []Request, i int32) {
	reqs[i].next = 0
	if s.tail == 0 {
		s.head = i
	} else {
		reqs[s.tail].next = i
	}
	s.tail = i
}

// unlink removes request i from the queue; prev is the request before it,
// 0 when i is the head.
func (s *server) unlink(reqs []Request, prev, i int32) int32 {
	if prev == 0 {
		s.head = reqs[i].next
	} else {
		reqs[prev].next = reqs[i].next
	}
	if s.tail == i {
		s.tail = prev
	}
	reqs[i].next = 0
	return i
}

func (s *server) pop(reqs []Request) int32 { return s.unlink(reqs, 0, s.head) }

// popPreferred pops the first queued read when readFirst is set (read
// priority scheduling, [7]); otherwise plain FIFO.
func (s *server) popPreferred(reqs []Request, readFirst bool) int32 {
	if readFirst {
		for prev, i := int32(0), s.head; i != 0; prev, i = i, reqs[i].next {
			if reqs[i].Op == trace.Read {
				return s.unlink(reqs, prev, i)
			}
		}
	}
	return s.pop(reqs)
}

// pushFront returns a cancelled write to the head of the queue.
func (s *server) pushFront(reqs []Request, i int32) {
	reqs[i].next = s.head
	s.head = i
	if s.tail == 0 {
		s.tail = i
	}
}

// quiescent reports whether the server has no request in service or
// waiting and no refresh pending. A quiescent server's busyUntil never
// lies in the future: every path that pushes busyUntil past now also
// starts a service or a refresh.
func (s *server) quiescent() bool {
	return s.inService == 0 && s.empty() && !s.refreshPending
}

// idleAt reports whether the server is completely quiescent at time now.
func (s *server) idleAt(now Clock) bool { return s.quiescent() && s.busyUntil <= now }

// rankState counts, for one rank, the banks that are not quiescent and the
// banks whose refresh table holds a candidate: the inputs of the idle-rank
// and r_th checks.
type rankState struct{ busy, cands int32 }

// initialRequests is the Request slab's starting capacity, sentinel
// included; the slab doubles from there to the run's peak in-flight
// population.
const initialRequests = 64

// Controller simulates one memory channel under the configured
// architecture. Create with New, feed a time-ordered trace with Run, and
// Reset to run again.
type Controller struct {
	cfg    Config
	mapper pcm.AddrMapper
	// banks holds every main-memory bank, indexed rank*BanksPerRank+bank;
	// caches holds one WOM-cache array per rank when cfg.Cache is set.
	banks  []server
	caches []server
	// rows is the main banks' per-row WOM state; cacheRows holds the
	// cache arrays' WOM state and selector fields.
	rows, cacheRows rowTable
	// reqs is the Request slab; slot 0 is the "none" sentinel. free heads
	// the stack of completed slots, linked through Request.next, that
	// newRequest reuses.
	reqs []Request
	free int32
	// tables is the slab every refresh table is a window of (see
	// womState.table); spare holds row pages a Reset took back from rows
	// and cacheRows, for either table to reuse.
	tables []int32
	spare  []*rowPage
	// ranks holds every rank's refresh-eligibility counters, kept by
	// settle when main-memory PCM-refresh is configured (empty otherwise);
	// need is the r_th threshold as a candidate-bank count.
	ranks []rankState
	need  int
	// onTick, when set, runs at the start of every refresh tick. Tests use
	// it to check the counters against a walk of the banks.
	onTick func(now Clock)

	events       eventHeap
	seq          uint64
	run          *stats.Run
	reqID        uint64
	inFlight     int
	arrivalsDone bool
	rrNext       int
	lastTime     Clock
	// probe receives instrumentation events; nil (the default) disables
	// them at the cost of one pointer check per emission site.
	probe *probe.Probe
	// evLocal accumulates event-loop steps between flushes to the shared
	// cfg.Events counter; see countEvent.
	evLocal int64
}

// New builds a controller; the config must validate. It is Reset on a zero
// Controller.
func New(cfg Config) (*Controller, error) {
	c := new(Controller)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds the controller for cfg, which must validate, as New would,
// while keeping its storage: the bank and cache arrays, the refresh-table
// slab, the Request slab, the event heap, the rank counters and the row
// pages are reused where they are large enough, so a Reset to an equal or
// smaller geometry allocates only the next run's statistics. Every counter,
// the request IDs and the event sequence start again from zero, and the
// onTick hook is cleared.
//
// Reset invalidates every Request index and row-page pointer taken from the
// controller. It never touches a run an earlier Run returned: each run gets
// a fresh *stats.Run. A Reset that fails leaves the controller unchanged.
func (c *Controller) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.PausePenalty == 0 {
		cfg.PausePenalty = cfg.Timing.Burst
	}
	g := cfg.Geometry
	var mapper pcm.AddrMapper
	if err := mapper.Reset(g); err != nil {
		return err
	}
	depth, cacheDepth := 0, 0
	if cfg.WOM != nil {
		depth = 1
		if cfg.Refresh != nil {
			depth = cfg.Refresh.TableSize
		}
	}
	if cfg.Cache != nil && cfg.Cache.Technology == WOMCache {
		cacheDepth = cfg.Cache.TableSize
	}
	// Everything not carried over below starts from its zero value.
	*c = Controller{
		cfg:       cfg,
		mapper:    mapper,
		banks:     resize(c.banks, g.Banks()),
		caches:    c.caches[:0],
		rows:      c.rows,
		cacheRows: c.cacheRows,
		reqs:      c.reqs,
		ranks:     c.ranks[:0],
		tables:    resize(c.tables, g.Banks()*depth+g.Ranks*cacheDepth),
		spare:     c.spare,
		events:    c.events[:0],
		run:       &stats.Run{Arch: cfg.ArchName()},
		probe:     cfg.Probe,
	}
	if c.reqs == nil {
		c.reqs = make([]Request, 1, initialRequests)
	}
	c.reqs = c.reqs[:1]
	c.rows.reset(uint(bits.TrailingZeros(uint(g.Banks()))), &c.spare)
	c.cacheRows.reset(uint(bits.TrailingZeros(uint(g.Ranks))), &c.spare)
	// Every refresh table is a window of one slab; the 3-index slices cap
	// each window at its depth.
	tables := c.tables
	for i := range c.banks {
		s := &c.banks[i]
		s.rank, s.idx = i/g.BanksPerRank, i%g.BanksPerRank
		s.openRow, s.abortedRow = -1, -1
		if cfg.WOM != nil {
			s.wom = womState{k: cfg.WOM.Rewrites, dirty: !cfg.WOM.FreshArrays, array: i, table: tables[:0:depth]}
			tables = tables[depth:]
		}
	}
	if cfg.Cache != nil {
		c.caches = resize(c.caches, g.Ranks)
		for r := range c.caches {
			ca := &c.caches[r]
			ca.rank, ca.idx, ca.openRow, ca.abortedRow = r, -1, -1, -1
			if cacheDepth > 0 {
				// Cache arrays are new, factory-erased hardware: fresh start.
				ca.wom = womState{k: cfg.Cache.Rewrites, array: r, table: tables[:0:cacheDepth]}
				tables = tables[cacheDepth:]
			}
		}
	}
	if cfg.Refresh != nil {
		c.ranks = resize(c.ranks, g.Ranks)
		c.need = cfg.Refresh.CandidateBanks(g.BanksPerRank)
	}
	return nil
}

// resize returns s with length n and every element zero, reusing its
// backing array when the capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bank returns the main-memory bank holding loc.
func (c *Controller) bank(loc pcm.Location) *server {
	return &c.banks[loc.Rank*c.cfg.Geometry.BanksPerRank+loc.Bank]
}

// rankBanks returns the banks of one rank.
func (c *Controller) rankBanks(rank int) []server {
	n := c.cfg.Geometry.BanksPerRank
	return c.banks[rank*n : (rank+1)*n]
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Run drains src through the simulated memory system and returns the
// collected statistics. A controller runs once per New or Reset.
func (c *Controller) Run(src trace.Source) (*stats.Run, error) {
	next, ok := src.Next()
	c.arrivalsDone = !ok
	if c.cfg.refreshEnabled() && !c.arrivalsDone {
		c.schedule(event{time: c.cfg.Timing.RefreshPeriod, kind: evRefreshTick})
	}
	for {
		evT, haveEv := c.nextEventTime()
		switch {
		case !c.arrivalsDone && (!haveEv || next.Time <= evT):
			if next.Time < c.lastTime {
				return nil, fmt.Errorf("memctrl: trace time goes backwards at %d ns (now %d)", next.Time, c.lastTime)
			}
			c.arrive(next)
			next, ok = src.Next()
			if !ok {
				c.arrivalsDone = true
				if err := src.Err(); err != nil {
					return nil, err
				}
			}
		case haveEv:
			c.countEvent()
			ev := c.events.pop()
			c.lastTime = ev.time
			c.handle(ev)
		default:
			c.run.SimulatedNs = c.lastTime
			if c.cfg.Events != nil && c.evLocal > 0 {
				c.cfg.Events.Add(c.evLocal)
				c.evLocal = 0
			}
			return c.run, nil
		}
	}
}

// refreshEnabled reports whether the configuration runs refresh ticks:
// main-memory PCM-refresh, or WCPCM's WOM-cache arrays.
func (c Config) refreshEnabled() bool {
	if c.Refresh != nil {
		return true
	}
	return c.Cache != nil && c.Cache.Technology == WOMCache
}

// eventFlushStride bounds how often the shared Events counter is touched:
// steps accumulate locally and flush every stride (plus once at Run's end),
// so the live-rate feed costs one atomic add per stride instead of per step.
const eventFlushStride = 1024

// countEvent accounts one event-loop step — an arrival or a handled event —
// in the run statistics and, when a live counter is configured, toward the
// next stride flush. The disabled path is one field increment and one nil
// check, allocation-free.
func (c *Controller) countEvent() {
	c.run.Events++
	if c.cfg.Events == nil {
		return
	}
	c.evLocal++
	if c.evLocal >= eventFlushStride {
		c.cfg.Events.Add(c.evLocal)
		c.evLocal = 0
	}
}

// arrive admits one trace record.
func (c *Controller) arrive(rec trace.Record) {
	c.countEvent()
	c.lastTime = rec.Time
	c.route(c.newRequest(rec.Op, rec.Time, c.mapper.Map(rec.Addr), false), rec.Time)
}

// newRequest admits a new in-flight request with the next ID and returns
// its slab index. It reuses a completed slot when one is free, zeroing it
// in place before filling it, so no state carries over from the previous
// use. Any *Request taken before the call is invalid after it: the append
// may move the slab.
func (c *Controller) newRequest(op trace.Op, arrive Clock, loc pcm.Location, internal bool) int32 {
	i := c.free
	if i != 0 {
		c.free = c.reqs[i].next
	} else {
		i = int32(len(c.reqs))
		c.reqs = append(c.reqs, Request{})
	}
	r := &c.reqs[i]
	*r = Request{}
	r.ID, r.Op, r.Arrive, r.Loc, r.Internal = c.reqID, op, arrive, loc, internal
	c.reqID++
	c.inFlight++
	return i
}

// maybeCancelWrite implements write cancellation ([7]): an arriving read
// aborts the write in service at its bank, which restarts from scratch
// after a re-arbitration penalty; the read then wins arbitration through
// read priority.
func (c *Controller) maybeCancelWrite(s *server, now Clock) {
	sched := c.cfg.Sched
	if sched == nil || !sched.WriteCancellation || s.inService == 0 {
		return
	}
	w := &c.reqs[s.inService]
	if w.Op != trace.Write {
		return
	}
	max := sched.MaxCancels
	if max == 0 {
		max = 4
	}
	if w.cancels >= max {
		return
	}
	w.cancels++
	c.run.WriteCancels++
	s.token++ // the in-flight completion event is now stale
	s.pushFront(c.reqs, s.inService)
	s.inService = 0
	s.busyUntil = now + c.cfg.PausePenalty
}

// route places request i on its server queue and attempts dispatch.
func (c *Controller) route(i int32, now Clock) {
	req := &c.reqs[i]
	if c.cfg.Cache != nil && !req.Internal {
		ca := &c.caches[req.Loc.Rank]
		if req.Op == trace.Write {
			// §4 write protocol: every demand write targets the rank's
			// WOM-cache; hit/miss resolves at dispatch.
			ca.enqueue(c.reqs, i)
			c.dispatchCache(ca, now)
			return
		}
		// §4 read protocol: probe cache and main memory in parallel; on a
		// tag match the cache services the read.
		if e := c.cacheRows.peek(req.Loc.Row, req.Loc.Rank); e.valid && int(e.tag) == req.Loc.Bank {
			c.run.CacheHits++
			req.class = stats.ReadCacheHit
			if c.probe != nil {
				c.probe.Emit(probe.Event{Time: now, Kind: probe.CacheHit,
					Rank: req.Loc.Rank, Bank: -1, Row: req.Loc.Row})
			}
			ca.enqueue(c.reqs, i)
			c.dispatchCache(ca, now)
			return
		}
		c.run.CacheMisses++
	}
	s := c.bank(req.Loc)
	if req.Op == trace.Read {
		c.maybeCancelWrite(s, now)
	}
	s.enqueue(c.reqs, i)
	c.dispatchBank(s, now)
}

// preemptRefresh implements write pausing: a demand access aborts the
// bank's in-progress refresh, paying only the re-arbitration penalty; the
// refresh row stays at the rewrite limit and returns to the table.
func (c *Controller) preemptRefresh(s *server, now Clock) {
	s.refreshPending = false
	if s.refreshRow >= 0 {
		rows := &c.rows
		if s.idx < 0 {
			rows = &c.cacheRows
		}
		s.wom.abortRefresh(rows, s.refreshRow)
		c.run.RefreshAborts++
		s.abortedRow = s.refreshRow
		if c.probe != nil {
			c.probe.Emit(probe.Event{Time: s.refreshStart, Dur: now - s.refreshStart,
				Kind: probe.RefreshPaused, Rank: s.rank, Bank: s.idx, Row: s.refreshRow})
		}
	}
	s.busyUntil = now + c.cfg.PausePenalty
}

// dispatchBank starts service on a main-memory bank if possible, then
// settles the bank's share of its rank's eligibility counters. Every
// change to a bank's queue, in-service request, pending refresh or refresh
// table ends in a dispatchBank, except a rank refresh starting, which
// settles its banks itself.
func (c *Controller) dispatchBank(s *server, now Clock) {
	if s.inService == 0 && !s.empty() {
		c.serveBank(s, now)
	}
	if len(c.ranks) > 0 {
		c.settle(s)
	}
}

// serveBank pops the next request of a bank with a waiting queue and
// nothing in service, and schedules its completion.
func (c *Controller) serveBank(s *server, now Clock) {
	if s.refreshPending && s.refreshEnd > now {
		if c.cfg.Refresh != nil && c.cfg.Refresh.NoPausing {
			// Ablation: wait for the refresh to finish; refreshDone
			// re-dispatches after committing, so the write sees the
			// refreshed row state.
			return
		}
		c.preemptRefresh(s, now)
	}
	i := s.popPreferred(c.reqs, c.cfg.Sched != nil && c.cfg.Sched.ReadPriority)
	req := &c.reqs[i]
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	dur := c.bankService(s, req)
	s.inService = i
	s.busyUntil = start + dur
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: start, Dur: dur, Kind: probe.BankBusy,
			Rank: s.rank, Bank: s.idx, Row: req.Loc.Row})
	}
	c.schedule(event{time: start + dur, kind: evComplete,
		target: int32(s.rank*c.cfg.Geometry.BanksPerRank + s.idx), token: s.token})
}

// settle brings a bank's contribution to its rank's eligibility counters
// up to date with the bank's state. The counters exist only when
// main-memory PCM-refresh, their one reader, is configured.
func (c *Controller) settle(s *server) {
	r := &c.ranks[s.rank]
	if busy := !s.quiescent(); busy != s.busy {
		s.busy = busy
		if busy {
			r.busy++
		} else {
			r.busy--
		}
	}
	if cands := s.wom.hasCandidates(); cands != s.cands {
		s.cands = cands
		if cands {
			r.cands++
		} else {
			r.cands--
		}
	}
}

// bankService computes the service duration for a main-bank request and
// classifies it. Reads to the open row are row-buffer hits; reads to other
// rows activate (the §5 row read, 27 ns). Writes always program the PCM
// array — RESET-class when the WOM rewrite budget covers them, the full
// row write otherwise — after activating the target row if it is not open
// (the read-modify-write the WOM encoder needs).
func (c *Controller) bankService(s *server, req *Request) Clock {
	t := c.cfg.Timing
	var dur Clock
	hit := s.openRow == req.Loc.Row
	if !hit {
		dur += t.RowRead
		s.openRow = req.Loc.Row
	}
	if req.Op == trace.Read {
		if hit {
			req.class = stats.ReadRowHit
		} else {
			req.class = stats.ReadArray
		}
	} else {
		// Classify without consuming the WOM budget: the budget commits
		// at completion, so a cancelled write leaves the row untouched.
		dur += c.classifyWrite(&s.wom, req)
	}
	dur += t.Column + t.Burst
	if c.cfg.WOM != nil && c.cfg.WOM.Org == HiddenPage {
		// The hidden page holding the upper encoded bits adds one burst of
		// transfer per access (see Organization docs).
		dur += t.Burst
	}
	return dur
}

// classifyWrite prices a main-bank row write from the row's current WOM
// state without mutating it; the matching budget commit happens in
// handle(evComplete) once the write truly finishes.
func (c *Controller) classifyWrite(wom *womState, req *Request) Clock {
	t := c.cfg.Timing
	switch {
	case wom.k == 0:
		req.class = stats.WriteBaseline
		return t.RowWrite
	case !wom.atLimit(&c.rows, req.Loc.Row):
		req.class = stats.WriteFast
		return t.Reset
	default:
		req.class = stats.WriteAlpha
		return t.RowWrite
	}
}

// womWriteKind maps a row's pre-commit WOM generation to the probe's write
// classification: generation 0 is the fast first-write pattern, an
// in-budget generation is a RESET-only rewrite, and an exhausted budget
// forces the slow α-write.
func womWriteKind(w *womState, rows *rowTable, row int) probe.Kind {
	switch gen := w.gen(rows, row); {
	case gen == 0:
		return probe.WriteFirst
	case gen < w.k:
		return probe.WriteWOMRewrite
	default:
		return probe.WriteAlpha
	}
}

// handle dispatches one event.
func (c *Controller) handle(ev event) {
	switch ev.kind {
	case evComplete:
		s := &c.banks[ev.target]
		if ev.token != s.token {
			// The serviced write was cancelled; this completion is stale.
			return
		}
		req := &c.reqs[s.inService]
		if req.Op == trace.Write && s.wom.k > 0 {
			// Commit the WOM budget the write consumed (classification
			// happened at dispatch; commit waits for true completion so
			// cancelled writes leave the row untouched). The probe event
			// rides the commit: cancelled writes never surface.
			if c.probe != nil {
				c.probe.Emit(probe.Event{Time: ev.time, Kind: womWriteKind(&s.wom, &c.rows, req.Loc.Row),
					Rank: s.rank, Bank: s.idx, Row: req.Loc.Row})
			}
			s.wom.write(&c.rows, req.Loc.Row)
		} else if req.Op == trace.Write && c.probe != nil {
			c.probe.Emit(probe.Event{Time: ev.time, Kind: probe.WriteFlipNWrite,
				Rank: s.rank, Bank: s.idx, Row: req.Loc.Row})
		}
		c.complete(s.inService, ev.time)
		s.inService = 0
		c.dispatchBank(s, ev.time)

	case evCacheComplete:
		ca := &c.caches[ev.target]
		i := ca.inService
		if c.reqs[i].spawnVictim {
			c.spawnVictim(i, ev.time)
		}
		// §4: the miss penalty beyond the cache access itself is a tag
		// comparison — the victim write-back drains asynchronously.
		c.complete(i, ev.time)
		ca.inService = 0
		c.dispatchCache(ca, ev.time)
	case evRefreshTick:
		c.refreshTick(ev.time)
	case evRefreshDone:
		c.refreshDone(int(ev.target), ev.time)
	case evCacheRefreshDone:
		c.cacheRefreshDone(int(ev.target), ev.time)
	}
}

// complete records finished request i and returns its slot to the free
// list; the caller must drop the index.
func (c *Controller) complete(i int32, now Clock) {
	req := &c.reqs[i]
	c.run.Class(req.class)
	if !req.Internal {
		lat := now - req.Arrive
		if req.Op == trace.Read {
			c.run.ReadLatency.Observe(lat)
		} else {
			c.run.WriteLatency.Observe(lat)
		}
		if c.probe != nil {
			c.probe.Emit(probe.Event{Time: req.Arrive, Dur: lat, Kind: probe.RequestDone,
				Read: req.Op == trace.Read, Rank: req.Loc.Rank, Bank: req.Loc.Bank, Row: req.Loc.Row})
		}
	}
	c.inFlight--
	req.next = c.free
	c.free = i
}

// spawnVictim inserts the WOM-cache victim write-back of cache miss i into
// the main memory queue (§4: "the write request of the victim data in the
// register is inserted into the queue of memory accesses issued to the PCM
// main memory").
func (c *Controller) spawnVictim(miss int32, now Clock) {
	m := &c.reqs[miss]
	loc := pcm.Location{Rank: m.Loc.Rank, Bank: m.victimBank, Row: m.Loc.Row}
	victim := c.newRequest(trace.Write, now, loc, true) // m is invalid from here
	c.run.VictimWrites++
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: now, Kind: probe.CacheWriteback,
			Rank: loc.Rank, Bank: loc.Bank, Row: loc.Row})
	}
	s := c.bank(loc)
	s.enqueue(c.reqs, victim)
	c.dispatchBank(s, now)
}
