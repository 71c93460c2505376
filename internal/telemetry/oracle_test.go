package telemetry

import (
	"womcpcm/internal/energy"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
)

// mapCollector is the collector as it stood before the open windows moved
// into a ring and the per-bank busy time into dense storage: open windows
// in a map keyed by index and per-bank busy time in a per-window map. It is
// kept verbatim (renamed) as the oracle TestCollectorMatchesMapOracle holds
// the production Collector to.

// mapAcc accumulates one not-yet-finalized window.
type mapAcc struct {
	writes   WriteMix
	refresh  RefreshActivity
	cache    CacheActivity
	busyNs   int64
	bankBusy map[int]int64 // (rank<<16|bank+1) → busy ns, for MaxBankUtilization
	read     stats.Latency
	write    stats.Latency
}

// mapCollector folds probe events and latency observations into windows. It is
// single-goroutine, like the simulator feeding it.
type mapCollector struct {
	opts      Options
	width     Clock
	model     energy.Model
	accs      map[int64]*mapAcc
	nextFinal int64 // lowest window index not yet finalized
	maxIndex  int64 // highest window index touched
	watermark Clock // highest event end time seen
	late      uint64
	done      []Window
}

// newMapCollector builds a collector.
func newMapCollector(opts Options) *mapCollector {
	if opts.WindowNs <= 0 {
		opts.WindowNs = DefaultWindowNs
	}
	model := energy.Default()
	if opts.Energy != nil {
		model = *opts.Energy
	}
	return &mapCollector{
		opts:     opts,
		width:    opts.WindowNs,
		model:    model,
		accs:     make(map[int64]*mapAcc),
		maxIndex: -1,
	}
}

// WindowNs returns the configured window width.
func (c *mapCollector) WindowNs() Clock { return c.width }

// at returns the accumulator for the window containing t, or nil when that
// window already finalized (the event is tallied as late).
func (c *mapCollector) at(t Clock) *mapAcc {
	if t < 0 {
		t = 0
	}
	idx := t / c.width
	if idx < c.nextFinal {
		c.late++
		return nil
	}
	a := c.accs[idx]
	if a == nil {
		a = &mapAcc{}
		c.accs[idx] = a
	}
	if idx > c.maxIndex {
		c.maxIndex = idx
	}
	return a
}

// advance moves the high-water mark and finalizes every window whose end is
// at least finalizeLagWindows behind it.
func (c *mapCollector) advance(end Clock) {
	if end <= c.watermark {
		return
	}
	c.watermark = end
	ready := end/c.width - finalizeLagWindows // windows strictly below are safe
	for c.nextFinal < ready && c.nextFinal <= c.maxIndex {
		c.finalize()
	}
}

// finalize seals window c.nextFinal (empty windows included, keeping the
// series dense) and hands it to OnWindow.
func (c *mapCollector) finalize() {
	idx := c.nextFinal
	c.nextFinal++
	a := c.accs[idx]
	delete(c.accs, idx)
	w := Window{
		Index:   idx,
		StartNs: idx * c.width,
		EndNs:   (idx + 1) * c.width,
	}
	if a != nil {
		w.Writes = a.writes
		w.Refresh = a.refresh
		w.Cache = a.cache
		w.BusyNs = a.busyNs
		if c.opts.Banks > 0 {
			w.Utilization = float64(a.busyNs) / (float64(c.width) * float64(c.opts.Banks))
		}
		var maxBusy int64
		for _, ns := range a.bankBusy {
			if ns > maxBusy {
				maxBusy = ns
			}
		}
		w.MaxBankUtilization = float64(maxBusy) / float64(c.width)
		w.Read = summarize(&a.read)
		w.Write = summarize(&a.write)
		w.EnergyPJ = c.price(a)
	}
	c.done = append(c.done, w)
	if c.opts.OnWindow != nil {
		c.opts.OnWindow(w)
	}
}

// price estimates one window's write and refresh energy: first writes and
// in-budget rewrites are RESET-only, α-writes and conventional writes are
// full row writes, and each completed refresh costs one row read plus one
// full row write (§3.2).
func (c *mapCollector) price(a *mapAcc) float64 {
	m := c.model
	pj := float64(a.writes.First+a.writes.Rewrite)*m.RowWriteFast +
		float64(a.writes.Alpha+a.writes.FlipNWrite)*m.RowWriteFull +
		float64(a.refresh.Completed)*(m.RowRead+m.RowWriteFull)
	return pj
}

// Record implements probe.Sink.
func (c *mapCollector) Record(ev probe.Event) {
	switch ev.Kind {
	case probe.RequestDone:
		// A demand latency lands in the window of its completion time.
		now := ev.Time + ev.Dur
		if a := c.at(now); a != nil {
			if ev.Read {
				a.read.Observe(ev.Dur)
			} else {
				a.write.Observe(ev.Dur)
			}
		}
		c.advance(now)
		return
	case probe.BankBusy:
		c.span(ev)
		c.advance(ev.Time + ev.Dur)
		return
	case probe.RefreshPaused, probe.RefreshCompleted:
		// Refresh intervals occupy their bank: count the event at its start
		// window and apportion the occupancy like a busy span.
		c.span(ev)
	}
	a := c.at(ev.Time)
	if a != nil {
		switch ev.Kind {
		case probe.WriteFirst:
			a.writes.First++
		case probe.WriteWOMRewrite:
			a.writes.Rewrite++
		case probe.WriteAlpha:
			a.writes.Alpha++
		case probe.WriteFlipNWrite:
			a.writes.FlipNWrite++
		case probe.RefreshScheduled:
			a.refresh.Scheduled++
		case probe.RefreshStarted:
			a.refresh.Started++
		case probe.RefreshPaused:
			a.refresh.Paused++
		case probe.RefreshResumed:
			a.refresh.Resumed++
		case probe.RefreshCompleted:
			a.refresh.Completed++
		case probe.CacheHit:
			a.cache.Hits++
		case probe.CacheFill:
			a.cache.Fills++
		case probe.CacheEvict:
			a.cache.Evicts++
		case probe.CacheWriteback:
			a.cache.Writebacks++
		}
	}
	c.advance(ev.Time + ev.Dur)
}

// span apportions an interval event's duration across every window it
// overlaps, tracking the per-bank share for MaxBankUtilization.
func (c *mapCollector) span(ev probe.Event) {
	if ev.Dur <= 0 {
		return
	}
	key := ev.Rank<<16 | (ev.Bank + 1) // Bank is -1 for rank-wide resources
	start, end := ev.Time, ev.Time+ev.Dur
	if start < 0 {
		start = 0
	}
	for t := start; t < end; {
		winEnd := (t/c.width + 1) * c.width
		chunk := winEnd - t
		if rest := end - t; rest < chunk {
			chunk = rest
		}
		if a := c.at(t); a != nil {
			a.busyNs += chunk
			if a.bankBusy == nil {
				a.bankBusy = make(map[int]int64)
			}
			a.bankBusy[key] += chunk
		}
		t = winEnd
	}
}

// Finish finalizes every remaining window and returns the completed series.
// simulatedNs stamps the run's end time; arch labels it. The collector must
// not be used afterwards.
func (c *mapCollector) Finish(arch string, simulatedNs int64) *Series {
	for c.nextFinal <= c.maxIndex {
		c.finalize()
	}
	return &Series{
		Arch:        arch,
		WindowNs:    c.width,
		SimulatedNs: simulatedNs,
		Banks:       c.opts.Banks,
		LateEvents:  c.late,
		Windows:     c.done,
	}
}
