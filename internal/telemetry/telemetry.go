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
// A Collector subscribes to the probe bus (it implements probe.Sink), and
// demand latencies arrive there as probe.RequestDone events. Like the probe
// it feeds from, a Collector is owned by a single simulation goroutine and
// is not safe for concurrent use: give every controller its own and merge
// the resulting Series afterwards.
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
	// active window, quiet windows included. Empty when the collector
	// streamed its windows through Options.OnWindow instead.
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
	// streaming hook (womd's SSE endpoint) — and Finish delivers the tail
	// the same way. A streaming collector retains no windows, so its
	// Series carries none; without OnWindow, every window is retained for
	// the Series.
	OnWindow func(Window)
}

// acc accumulates one not-yet-finalized window. The collector's ring owns
// its accumulators and resets them when their window finalizes, so a warm
// collector records without allocating.
type acc struct {
	// touched marks an accumulator some event landed in since its last
	// reset; an untouched one finalizes as a zero window.
	touched bool
	writes  WriteMix
	refresh RefreshActivity
	cache   CacheActivity
	busyNs  int64
	// bankBusy[rank][bank+1] is the window's busy ns per resource (Bank is
	// -1 for a rank's cache array). It grows on demand, dirty lists its
	// nonzero slots as rank<<16 | bank+1 for the reset, and other holds the
	// resources outside it (see addBusy). maxBusy is the largest share, for
	// MaxBankUtilization.
	bankBusy [][]int64
	dirty    []int32
	other    []keyBusy
	maxBusy  int64
	read     stats.Latency
	write    stats.Latency
}

// keyBusy is one resource's busy ns, keyed rank<<16 | bank+1.
type keyBusy struct {
	key int
	ns  int64
}

// maxDenseRanks bounds bankBusy's rank dimension, so an out-of-contract
// rank cannot size it.
const maxDenseRanks = 1 << 10

// addBusy charges ns to the resource at (rank, bank). Resources are keyed
// rank<<16 | bank+1 and the key splits back into a dense (key>>16,
// key&0xffff) slot, so two events share a slot exactly when they share a
// key; keys whose rank part falls outside [0, maxDenseRanks) go to other.
func (a *acc) addBusy(rank, bank int, ns int64) {
	key := rank<<16 | (bank + 1)
	r, b := key>>16, key&0xffff
	var busy *int64
	if r < 0 || r >= maxDenseRanks {
		for i := range a.other {
			if a.other[i].key == key {
				busy = &a.other[i].ns
				break
			}
		}
		if busy == nil {
			a.other = append(a.other, keyBusy{key: key})
			busy = &a.other[len(a.other)-1].ns
		}
	} else {
		for len(a.bankBusy) <= r {
			a.bankBusy = append(a.bankBusy, nil)
		}
		row := a.bankBusy[r]
		if len(row) <= b {
			row = append(row, make([]int64, b+1-len(row))...)
			a.bankBusy[r] = row
		}
		busy = &row[b]
		if *busy == 0 { // spans are positive, so 0 means untouched
			a.dirty = append(a.dirty, int32(key))
		}
	}
	*busy += ns
	a.maxBusy = max(a.maxBusy, *busy)
}

// reset empties a for its next window, keeping its storage.
func (a *acc) reset() {
	for _, k := range a.dirty {
		a.bankBusy[k>>16][k&0xffff] = 0
	}
	*a = acc{bankBusy: a.bankBusy, dirty: a.dirty[:0], other: a.other[:0]}
}

// Collector folds probe events and latency observations into windows. It is
// single-goroutine, like the simulator feeding it.
type Collector struct {
	opts  Options
	width Clock
	model energy.Model
	// wins is a ring (a slice-backed deque) of accumulators in which
	// wins[(head+i)&(len(wins)-1)] holds window nextFinal+i. Its length is
	// a power of two (or 0), and a nil slot is a window nothing has touched
	// yet.
	wins      []*acc
	head      int
	nextFinal int64 // lowest window index not yet finalized
	maxIndex  int64 // highest window index touched
	lastIndex int64 // window of the last timestamp index looked up
	watermark Clock // highest event end time seen
	late      uint64
	done      []Window // retained windows; only without Options.OnWindow
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
	return c.window(c.index(t))
}

// index returns the window containing t >= 0. Events arrive mostly in time
// order, so it tries the last window it returned before dividing.
func (c *Collector) index(t Clock) int64 {
	if lo := c.lastIndex * c.width; t >= lo && t-lo < c.width {
		return c.lastIndex
	}
	c.lastIndex = t / c.width
	return c.lastIndex
}

// window returns the accumulator for window idx, or nil when it already
// finalized (the event is tallied as late).
func (c *Collector) window(idx int64) *acc {
	if idx < c.nextFinal {
		c.late++
		return nil
	}
	off := idx - c.nextFinal
	if off >= int64(len(c.wins)) {
		c.grow(off + 1)
	}
	slot := &c.wins[(c.head+int(off))&(len(c.wins)-1)]
	if *slot == nil {
		*slot = new(acc)
	}
	a := *slot
	a.touched = true
	if idx > c.maxIndex {
		c.maxIndex = idx
	}
	return a
}

// grow resizes the ring to hold at least n windows from nextFinal on,
// keeping each accumulator at its window's offset.
func (c *Collector) grow(n int64) {
	size := max(len(c.wins), 4)
	for int64(size) < n {
		size *= 2
	}
	wins := make([]*acc, size)
	for i := range c.wins {
		wins[i] = c.wins[(c.head+i)&(len(c.wins)-1)]
	}
	c.wins, c.head = wins, 0
}

// advance moves the high-water mark and finalizes every window whose end is
// at least finalizeLagWindows behind it.
func (c *Collector) advance(end Clock) {
	if end <= c.watermark {
		return
	}
	c.watermark = end
	if end < (c.nextFinal+finalizeLagWindows+1)*c.width {
		// Nothing new is safe, and the division is saved. Should the product
		// overflow, the true bound is past any end, so either branch is right.
		return
	}
	ready := end/c.width - finalizeLagWindows // windows strictly below are safe
	for c.nextFinal < ready && c.nextFinal <= c.maxIndex {
		c.finalize()
	}
}

// finalize seals window c.nextFinal (empty windows included, keeping the
// series dense), hands it to OnWindow or retains it, and recycles its
// accumulator as the ring's last slot.
func (c *Collector) finalize() {
	idx := c.nextFinal
	a := c.wins[c.head]
	c.nextFinal++
	c.head = (c.head + 1) & (len(c.wins) - 1)
	w := Window{
		Index:   idx,
		StartNs: idx * c.width,
		EndNs:   (idx + 1) * c.width,
	}
	if a != nil && a.touched {
		w.Writes = a.writes
		w.Refresh = a.refresh
		w.Cache = a.cache
		w.BusyNs = a.busyNs
		if c.opts.Banks > 0 {
			w.Utilization = float64(a.busyNs) / (float64(c.width) * float64(c.opts.Banks))
		}
		w.Read = summarize(&a.read)
		w.Write = summarize(&a.write)
		w.MaxBankUtilization = float64(a.maxBusy) / float64(c.width)
		w.EnergyPJ = c.price(a)
		a.reset()
	}
	if c.opts.OnWindow != nil {
		c.opts.OnWindow(w)
	} else {
		c.done = append(c.done, w)
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
	start, end := ev.Time, ev.Time+ev.Dur
	if start < 0 {
		start = 0
	}
	for t := start; t < end; {
		idx := c.index(t)
		winEnd := (idx + 1) * c.width
		chunk := winEnd - t
		if rest := end - t; rest < chunk {
			chunk = rest
		}
		if a := c.window(idx); a != nil {
			a.busyNs += chunk
			a.addBusy(ev.Rank, ev.Bank, chunk)
		}
		t = winEnd
	}
}

// Finish finalizes every remaining window and returns the completed series
// (without windows when they streamed through Options.OnWindow).
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
