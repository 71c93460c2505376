// Package telemetry turns the simulator's event stream into epoch-windowed
// time series keyed on the *simulated* clock. Where internal/stats reports
// end-of-run aggregates and internal/probe raw events, a telemetry Collector
// folds both into fixed-width windows (default 100 µs simulated): per-window
// write-class mix (first / WOM-rewrite / α / Flip-N-Write), demand latency
// quantiles, PCM-refresh activity, WOM-cache action rates, bank occupancy,
// and a write/refresh energy estimate. The time-resolved view makes the
// paper's dynamics visible — WOM rewrite capacity draining as rows hit the
// <2^2>^2/3 limit, PCM-refresh replenishing it during idle rank cycles,
// WCPCM hit rates shifting with working-set phase — instead of burying them
// in one post-mortem number.
//
// A Collector subscribes to the probe bus (it implements probe.Sink); demand
// latencies arrive there as probe.RequestDone events. Like the probe it feeds from, a Collector is owned by a single simulation
// goroutine and is not safe for concurrent use; give every controller its
// own and merge the resulting Series afterwards.
//
// Window semantics: window k covers [k·W, (k+1)·W) in simulated nanoseconds,
// so an event stamped exactly k·W lands in window k. Counts attribute to the
// window containing the event's start time; busy spans (bank service,
// refresh intervals) apportion their duration across every window they
// overlap. Windows finalize — surfacing through Options.OnWindow for live
// streaming — once the stream's high-water mark is two windows past their
// end, which covers the simulator's bounded event reordering (spans are
// emitted at completion carrying their start time); an event older than that
// is counted in Series.LateEvents instead of silently vanishing.
package telemetry

import (
	"womcpcm/internal/energy"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
)

// Clock is a simulated timestamp or duration in nanoseconds, mirroring
// probe.Clock.
type Clock = int64

// DefaultWindowNs is the default window width: 100 µs simulated — fine
// enough to resolve refresh periods (4000 ns) in aggregate while keeping a
// 200k-request run to a few hundred windows.
const DefaultWindowNs Clock = 100_000

// SchemaVersion tags the series JSON documents womsim emits and womtool
// report consumes.
const SchemaVersion = "womcpcm-series-v1"

// finalizeLagWindows is how many whole windows the high-water mark must pass
// beyond a window's end before it finalizes. The simulator emits span events
// at completion carrying their start time, so events arrive at most one
// refresh interval (≪ a default window) out of order; two windows of lag
// absorbs that even for narrow windows.
const finalizeLagWindows = 2

// WriteMix counts one window's row writes by class — the paper's four-way
// classification (probe.WriteFirst … probe.WriteFlipNWrite).
type WriteMix struct {
	// First counts generation-0 writes into erased WOM rows.
	First uint64 `json:"first"`
	// Rewrite counts in-budget RESET-only WOM rewrites.
	Rewrite uint64 `json:"rewrite"`
	// Alpha counts post-limit α-writes, the §3.2 bottleneck.
	Alpha uint64 `json:"alpha"`
	// FlipNWrite counts conventional full row writes (baseline arrays,
	// WCPCM victim write-backs).
	FlipNWrite uint64 `json:"flip_n_write"`
}

// Total sums the classes.
func (m WriteMix) Total() uint64 { return m.First + m.Rewrite + m.Alpha + m.FlipNWrite }

// RefreshActivity counts one window's PCM-refresh lifecycle events.
type RefreshActivity struct {
	Scheduled uint64 `json:"scheduled,omitempty"`
	Started   uint64 `json:"started,omitempty"`
	Paused    uint64 `json:"paused,omitempty"`
	Resumed   uint64 `json:"resumed,omitempty"`
	Completed uint64 `json:"completed,omitempty"`
}

// CacheActivity counts one window's WOM-cache actions (WCPCM only).
type CacheActivity struct {
	Hits       uint64 `json:"hits,omitempty"`
	Fills      uint64 `json:"fills,omitempty"`
	Evicts     uint64 `json:"evicts,omitempty"`
	Writebacks uint64 `json:"writebacks,omitempty"`
}

// HitRate returns hits/(hits+fills+evicts), or 0 without lookups. Fills and
// evicts are the write-miss classes, so the ratio mirrors
// stats.Run.CacheHitRate per window.
func (c CacheActivity) HitRate() float64 {
	total := c.Hits + c.Fills + c.Evicts
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// LatencySummary compresses one window's latency distribution: the summary
// quantiles without the full bucket vector, keeping per-window JSON small.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
}

func summarize(l *stats.Latency) LatencySummary {
	if l.Count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  l.Count,
		MeanNs: l.Mean(),
		P50Ns:  l.Quantile(0.50),
		P95Ns:  l.Quantile(0.95),
		P99Ns:  l.Quantile(0.99),
		MaxNs:  l.Max,
	}
}

// Window is one finalized epoch of the time series.
type Window struct {
	// Index is the window number; StartNs/EndNs its half-open simulated
	// interval [StartNs, EndNs).
	Index   int64 `json:"index"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Writes is the window's write-class mix.
	Writes WriteMix `json:"writes"`
	// Refresh and Cache count the window's lifecycle events.
	Refresh RefreshActivity `json:"refresh"`
	Cache   CacheActivity   `json:"cache"`
	// BusyNs is total bank occupancy apportioned into this window: service
	// spans plus refresh intervals, summed across banks.
	BusyNs int64 `json:"busy_ns"`
	// Utilization is BusyNs normalized by window width × bank count (0 when
	// the collector was not told the bank count). MaxBankUtilization is the
	// single busiest bank's share of the window.
	Utilization        float64 `json:"utilization"`
	MaxBankUtilization float64 `json:"max_bank_utilization"`
	// Read and Write summarize demand latencies of requests *completing* in
	// this window (fed by probe.RequestDone events).
	Read  LatencySummary `json:"read"`
	Write LatencySummary `json:"write"`
	// EnergyPJ prices the window's writes and completed refreshes under the
	// collector's energy model. Reads are not priced, so this is the
	// write/refresh share only.
	EnergyPJ float64 `json:"energy_pj"`
}

// Series is one simulation's full windowed time series.
type Series struct {
	// Arch labels the simulated architecture.
	Arch string `json:"arch"`
	// WindowNs is the window width.
	WindowNs int64 `json:"window_ns"`
	// SimulatedNs is the run's end time, as passed to Finish.
	SimulatedNs int64 `json:"simulated_ns"`
	// Banks is the serviced-resource count used for utilization (0 when
	// unknown).
	Banks int `json:"banks,omitempty"`
	// LateEvents counts events that arrived for already-finalized windows
	// (only possible with windows narrower than the simulator's event
	// reordering); they are excluded from Windows but not silently dropped.
	LateEvents uint64 `json:"late_events,omitempty"`
	// Windows is the dense series: every index from 0 through the last
	// active window, quiet windows included.
	Windows []Window `json:"windows"`
}

// Totals sums the write mix across all windows.
func (s *Series) Totals() WriteMix {
	var m WriteMix
	for i := range s.Windows {
		w := &s.Windows[i].Writes
		m.First += w.First
		m.Rewrite += w.Rewrite
		m.Alpha += w.Alpha
		m.FlipNWrite += w.FlipNWrite
	}
	return m
}

// Document is the one-file series bundle womsim -series writes: the four
// architectures' series over one workload, window-aligned for comparison.
type Document struct {
	Schema   string   `json:"schema"`
	Workload string   `json:"workload"`
	Requests int      `json:"requests,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	WindowNs int64    `json:"window_ns"`
	Series   []Series `json:"series"`
}

// Options configures a Collector. The zero value is usable: default window
// width, no bank count (utilization 0), default energy pricing, no live
// callback.
type Options struct {
	// WindowNs is the window width in simulated nanoseconds (default
	// DefaultWindowNs).
	WindowNs Clock
	// Banks is the number of serially serviced resources (banks plus cache
	// arrays) behind the event stream, used to normalize utilization; 0
	// leaves Utilization at 0.
	Banks int
	// Energy prices each window's writes and refreshes; nil selects
	// energy.Default().
	Energy *energy.Model
	// OnWindow, when set, receives each window as it finalizes — the live
	// streaming hook (womd's SSE endpoint). Finalized windows are retained
	// either way; Finish delivers the tail.
	OnWindow func(Window)
}

// acc accumulates one not-yet-finalized window.
type acc struct {
	writes   WriteMix
	refresh  RefreshActivity
	cache    CacheActivity
	busyNs   int64
	bankBusy map[int]int64 // (rank<<16|bank+1) → busy ns, for MaxBankUtilization
	read     stats.Latency
	write    stats.Latency
}

// Collector folds probe events and latency observations into windows. It is
// single-goroutine, like the simulator feeding it.
type Collector struct {
	opts      Options
	width     Clock
	model     energy.Model
	accs      map[int64]*acc
	nextFinal int64 // lowest window index not yet finalized
	maxIndex  int64 // highest window index touched
	watermark Clock // highest event end time seen
	late      uint64
	done      []Window
}

// New builds a collector.
func New(opts Options) *Collector {
	if opts.WindowNs <= 0 {
		opts.WindowNs = DefaultWindowNs
	}
	model := energy.Default()
	if opts.Energy != nil {
		model = *opts.Energy
	}
	return &Collector{
		opts:     opts,
		width:    opts.WindowNs,
		model:    model,
		accs:     make(map[int64]*acc),
		maxIndex: -1,
	}
}

// WindowNs returns the configured window width.
func (c *Collector) WindowNs() Clock { return c.width }

// at returns the accumulator for the window containing t, or nil when that
// window already finalized (the event is tallied as late).
func (c *Collector) at(t Clock) *acc {
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
		a = &acc{}
		c.accs[idx] = a
	}
	if idx > c.maxIndex {
		c.maxIndex = idx
	}
	return a
}

// advance moves the high-water mark and finalizes every window whose end is
// at least finalizeLagWindows behind it.
func (c *Collector) advance(end Clock) {
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
func (c *Collector) finalize() {
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
func (c *Collector) price(a *acc) float64 {
	m := c.model
	pj := float64(a.writes.First+a.writes.Rewrite)*m.RowWriteFast +
		float64(a.writes.Alpha+a.writes.FlipNWrite)*m.RowWriteFull +
		float64(a.refresh.Completed)*(m.RowRead+m.RowWriteFull)
	return pj
}

// Record implements probe.Sink.
func (c *Collector) Record(ev probe.Event) {
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
func (c *Collector) span(ev probe.Event) {
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
func (c *Collector) Finish(arch string, simulatedNs int64) *Series {
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
