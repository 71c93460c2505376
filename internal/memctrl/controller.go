package memctrl

import (
	"fmt"

	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// Request is one memory access in flight through the controller.
//
// The controller owns every Request and recycles it through a free list:
// complete returns it, and newRequest hands it out again fully reset.
// Nothing may keep a *Request after complete — probe events receive
// values, and a cache miss spawns its victim before the miss itself
// completes.
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
	// next links the request into its server's queue while it waits and
	// into the controller's free list once it has completed.
	next *Request
}

// server is one serially serviced resource: a main-memory bank or a rank's
// WOM-cache array. Requests queue FIFO; service begins when the resource
// frees and holds it for the service duration.
type server struct {
	rank, idx int
	// head and tail delimit the queue of waiting requests, linked through
	// Request.next. The queue owns no storage of its own, so a server that
	// never drains holds only the requests actually waiting.
	head, tail *Request
	inService  *Request
	busyUntil  Clock
	wom        *womState

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
	refreshRow     int
	refreshStart   Clock
	refreshEnd     Clock
	// abortedRow remembers the last refresh row write pausing preempted,
	// so the probe can tell a resumed refresh from a fresh one.
	abortedRow int
}

func (s *server) empty() bool { return s.head == nil }

func (s *server) enqueue(r *Request) {
	r.next = nil
	if s.tail == nil {
		s.head = r
	} else {
		s.tail.next = r
	}
	s.tail = r
}

// unlink removes r from the queue; prev is the request before it, nil when
// r is the head.
func (s *server) unlink(prev, r *Request) *Request {
	if prev == nil {
		s.head = r.next
	} else {
		prev.next = r.next
	}
	if s.tail == r {
		s.tail = prev
	}
	r.next = nil
	return r
}

func (s *server) pop() *Request { return s.unlink(nil, s.head) }

// popPreferred pops the first queued read when readFirst is set (read
// priority scheduling, [7]); otherwise plain FIFO.
func (s *server) popPreferred(readFirst bool) *Request {
	if readFirst {
		var prev *Request
		for r := s.head; r != nil; prev, r = r, r.next {
			if r.Op == trace.Read {
				return s.unlink(prev, r)
			}
		}
	}
	return s.pop()
}

// pushFront returns a cancelled write to the head of the queue.
func (s *server) pushFront(r *Request) {
	r.next = s.head
	s.head = r
	if s.tail == nil {
		s.tail = r
	}
}

// idleAt reports whether the server is completely quiescent at time now.
func (s *server) idleAt(now Clock) bool {
	return s.inService == nil && s.empty() && s.busyUntil <= now && !s.refreshPending
}

// Controller simulates one memory channel under the configured
// architecture. Create with New, feed a time-ordered trace with Run.
type Controller struct {
	cfg    Config
	mapper *pcm.AddrMapper
	banks  [][]*server   // [rank][bank]
	caches []*cacheArray // per rank; nil entries unless cfg.Cache != nil

	events       eventHeap
	seq          uint64
	run          *stats.Run
	reqID        uint64
	inFlight     int
	arrivalsDone bool
	rrNext       int
	lastTime     Clock
	// free is the stack of completed Requests, linked through
	// Request.next, that newRequest reuses.
	free *Request
	// probe receives instrumentation events; nil (the default) disables
	// them at the cost of one pointer check per emission site.
	probe *probe.Probe
	// evLocal accumulates event-loop steps between flushes to the shared
	// cfg.Events counter; see countEvent.
	evLocal int64
}

// New builds a controller; the config must validate.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PausePenalty == 0 {
		cfg.PausePenalty = cfg.Timing.Burst
	}
	mapper, err := pcm.NewAddrMapper(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:    cfg,
		mapper: mapper,
		run:    &stats.Run{Arch: cfg.ArchName()},
		probe:  cfg.Probe,
	}
	c.banks = make([][]*server, cfg.Geometry.Ranks)
	for r := range c.banks {
		c.banks[r] = make([]*server, cfg.Geometry.BanksPerRank)
		for b := range c.banks[r] {
			s := &server{rank: r, idx: b, openRow: -1, abortedRow: -1}
			if cfg.WOM != nil {
				tableSize := 1
				if cfg.Refresh != nil {
					tableSize = cfg.Refresh.TableSize
				}
				s.wom = newWOMState(cfg.WOM.Rewrites, tableSize, !cfg.WOM.FreshArrays)
			}
			c.banks[r][b] = s
		}
	}
	if cfg.Cache != nil {
		c.caches = make([]*cacheArray, cfg.Geometry.Ranks)
		for r := range c.caches {
			c.caches[r] = newCacheArray(r, cfg)
		}
	}
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Run drains src through the simulated memory system and returns the
// collected statistics. The controller is single-use.
func (c *Controller) Run(src trace.Source) (*stats.Run, error) {
	next, ok := src.Next()
	c.arrivalsDone = !ok
	if c.refreshEnabled() && !c.arrivalsDone {
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

func (c *Controller) refreshEnabled() bool {
	if c.cfg.Refresh != nil {
		return true
	}
	return c.cfg.Cache != nil && c.cfg.Cache.Technology == WOMCache
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
	req := c.newRequest(Request{
		Op:     rec.Op,
		Arrive: rec.Time,
		Loc:    c.mapper.Map(rec.Addr),
	})
	c.route(req, rec.Time)
}

// newRequest admits r as a new in-flight request with the next ID. It
// reuses a completed Request when one is free; the whole-struct assignment
// resets every field, so no state carries over from the previous use.
func (c *Controller) newRequest(r Request) *Request {
	req := c.free
	if req != nil {
		c.free = req.next
	} else {
		req = new(Request)
	}
	r.ID = c.reqID
	*req = r
	c.reqID++
	c.inFlight++
	return req
}

// maybeCancelWrite implements write cancellation ([7]): an arriving read
// aborts the write in service at its bank, which restarts from scratch
// after a re-arbitration penalty; the read then wins arbitration through
// read priority.
func (c *Controller) maybeCancelWrite(s *server, now Clock) {
	sched := c.cfg.Sched
	if sched == nil || !sched.WriteCancellation {
		return
	}
	w := s.inService
	if w == nil || w.Op != trace.Write {
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
	s.inService = nil
	s.busyUntil = now + c.cfg.PausePenalty
	s.pushFront(w)
}

// route places a request on its server queue and attempts dispatch.
func (c *Controller) route(req *Request, now Clock) {
	if c.cfg.Cache != nil && !req.Internal {
		ca := c.caches[req.Loc.Rank]
		if req.Op == trace.Write {
			// §4 write protocol: every demand write targets the rank's
			// WOM-cache; hit/miss resolves at dispatch.
			ca.enqueue(req)
			c.dispatchCache(ca, now)
			return
		}
		// §4 read protocol: probe cache and main memory in parallel; on a
		// tag match the cache services the read.
		if e, ok := ca.entries[req.Loc.Row]; ok && e.valid && e.bank == req.Loc.Bank {
			c.run.CacheHits++
			req.class = stats.ReadCacheHit
			if c.probe != nil {
				c.probe.Emit(probe.Event{Time: now, Kind: probe.CacheHit,
					Rank: req.Loc.Rank, Bank: -1, Row: req.Loc.Row})
			}
			ca.enqueue(req)
			c.dispatchCache(ca, now)
			return
		}
		c.run.CacheMisses++
	}
	s := c.banks[req.Loc.Rank][req.Loc.Bank]
	if req.Op == trace.Read {
		c.maybeCancelWrite(s, now)
	}
	s.enqueue(req)
	c.dispatchBank(s, now)
}

// preemptRefresh implements write pausing: a demand access aborts the
// bank's in-progress refresh, paying only the re-arbitration penalty; the
// refresh row stays at the rewrite limit and returns to the table.
func (c *Controller) preemptRefresh(s *server, now Clock) {
	s.refreshPending = false
	if s.refreshRow >= 0 {
		s.wom.abortRefresh(s.refreshRow)
		c.run.RefreshAborts++
		s.abortedRow = s.refreshRow
		if c.probe != nil {
			c.probe.Emit(probe.Event{Time: s.refreshStart, Dur: now - s.refreshStart,
				Kind: probe.RefreshPaused, Rank: s.rank, Bank: s.idx, Row: s.refreshRow})
		}
	}
	s.busyUntil = now + c.cfg.PausePenalty
}

// dispatchBank starts service on a main-memory bank if possible.
func (c *Controller) dispatchBank(s *server, now Clock) {
	if s.inService != nil || s.empty() {
		return
	}
	if s.refreshPending && s.refreshEnd > now {
		if c.cfg.Refresh != nil && c.cfg.Refresh.NoPausing {
			// Ablation: wait for the refresh to finish; refreshDone
			// re-dispatches after committing, so the write sees the
			// refreshed row state.
			return
		}
		c.preemptRefresh(s, now)
	}
	req := s.popPreferred(c.cfg.Sched != nil && c.cfg.Sched.ReadPriority)
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	dur := c.bankService(s, req)
	s.inService = req
	s.busyUntil = start + dur
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: start, Dur: dur, Kind: probe.BankBusy,
			Rank: s.rank, Bank: s.idx, Row: req.Loc.Row})
	}
	c.schedule(event{time: start + dur, kind: evComplete, rank: s.rank, bank: s.idx, token: s.token})
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
		dur += c.classifyWrite(s.wom, req)
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
	case wom == nil:
		req.class = stats.WriteBaseline
		return t.RowWrite
	case !wom.atLimit(req.Loc.Row):
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
func womWriteKind(w *womState, row int) probe.Kind {
	switch gen := w.gen(row); {
	case gen == 0:
		return probe.WriteFirst
	case gen < w.k:
		return probe.WriteWOMRewrite
	default:
		return probe.WriteAlpha
	}
}

// arrayWrite charges one PCM array row write, consuming the row's WOM
// budget when the array is WOM-coded, and stores the class in *class.
func (c *Controller) arrayWrite(wom *womState, row int, class *stats.ServiceClass) Clock {
	t := c.cfg.Timing
	switch {
	case wom == nil:
		*class = stats.WriteBaseline
		return t.RowWrite
	case wom.write(row):
		*class = stats.WriteFast
		return t.Reset
	default:
		*class = stats.WriteAlpha
		return t.RowWrite
	}
}

// handle dispatches one event.
func (c *Controller) handle(ev event) {
	switch ev.kind {
	case evComplete:
		s := c.banks[ev.rank][ev.bank]
		if ev.token != s.token {
			// The serviced write was cancelled; this completion is stale.
			return
		}
		req := s.inService
		if req.Op == trace.Write && s.wom != nil {
			// Commit the WOM budget the write consumed (classification
			// happened at dispatch; commit waits for true completion so
			// cancelled writes leave the row untouched). The probe event
			// rides the commit: cancelled writes never surface.
			if c.probe != nil {
				c.probe.Emit(probe.Event{Time: ev.time, Kind: womWriteKind(s.wom, req.Loc.Row),
					Rank: s.rank, Bank: s.idx, Row: req.Loc.Row})
			}
			s.wom.write(req.Loc.Row)
		} else if req.Op == trace.Write && c.probe != nil {
			c.probe.Emit(probe.Event{Time: ev.time, Kind: probe.WriteFlipNWrite,
				Rank: s.rank, Bank: s.idx, Row: req.Loc.Row})
		}
		c.complete(req, ev.time)
		s.inService = nil
		c.dispatchBank(s, ev.time)

	case evCacheComplete:
		ca := c.caches[ev.rank]
		req := ca.inService
		if req.spawnVictim {
			c.spawnVictim(req, ev.time)
		}
		// §4: the miss penalty beyond the cache access itself is a tag
		// comparison — the victim write-back drains asynchronously.
		c.complete(req, ev.time)
		ca.inService = nil
		c.dispatchCache(ca, ev.time)
	case evRefreshTick:
		c.refreshTick(ev.time)
	case evRefreshDone:
		c.refreshDone(ev.rank, ev.time)
	case evCacheRefreshDone:
		c.cacheRefreshDone(ev.rank, ev.time)
	}
}

// complete records a finished request and returns it to the free list; the
// caller must drop its reference.
func (c *Controller) complete(req *Request, now Clock) {
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
	c.free = req
}

// spawnVictim inserts the WOM-cache victim write-back into the main memory
// queue (§4: "the write request of the victim data in the register is
// inserted into the queue of memory accesses issued to the PCM main
// memory").
func (c *Controller) spawnVictim(req *Request, now Clock) {
	victim := c.newRequest(Request{
		Op:       trace.Write,
		Arrive:   now,
		Loc:      pcm.Location{Rank: req.Loc.Rank, Bank: req.victimBank, Row: req.Loc.Row},
		Internal: true,
	})
	c.run.VictimWrites++
	if c.probe != nil {
		c.probe.Emit(probe.Event{Time: now, Kind: probe.CacheWriteback,
			Rank: victim.Loc.Rank, Bank: victim.Loc.Bank, Row: victim.Loc.Row})
	}
	s := c.banks[victim.Loc.Rank][victim.Loc.Bank]
	s.enqueue(victim)
	c.dispatchBank(s, now)
}
