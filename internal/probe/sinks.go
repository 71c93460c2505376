package probe

// CounterSink aggregates events into per-kind counts — the cheap always-on
// sink: no allocation per event, one array increment.
type CounterSink struct {
	counts [numKinds]uint64
}

// NewCounterSink returns an empty counter sink.
func NewCounterSink() *CounterSink { return &CounterSink{} }

// Record implements Sink.
func (c *CounterSink) Record(ev Event) {
	if int(ev.Kind) < len(c.counts) {
		c.counts[ev.Kind]++
	}
}

// Count returns the number of events of one kind.
func (c *CounterSink) Count(k Kind) uint64 {
	if int(k) >= len(c.counts) {
		return 0
	}
	return c.counts[k]
}

// Total returns the number of events recorded.
func (c *CounterSink) Total() uint64 {
	var n uint64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Counts exports the non-zero counters keyed by kind name.
func (c *CounterSink) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range c.counts {
		if v > 0 {
			out[Kind(k).String()] = v
		}
	}
	return out
}

// TimelineSink retains one simulation's event stream, RequestDone aside,
// for Chrome trace-event export, up to a configurable bound. Each sink becomes one
// trace "process" (Pid/Label), so several simulations — e.g. the four
// architectures replaying the same workload — merge into one timeline.
type TimelineSink struct {
	// Pid is the trace process id; Label its displayed name.
	Pid   int
	Label string

	limit   int
	events  []Event
	dropped uint64
}

// NewTimelineSink builds a sink exporting as trace process pid named label.
// limit bounds retained events (0 = unbounded); events past the bound are
// counted in Dropped instead of retained.
func NewTimelineSink(pid int, label string, limit int) *TimelineSink {
	return &TimelineSink{Pid: pid, Label: label, limit: limit}
}

// Record implements Sink. RequestDone events are skipped: one instant per
// request would bury the per-bank tracks and use up the limit.
func (t *TimelineSink) Record(ev Event) {
	if ev.Kind == RequestDone {
		return
	}
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Len returns the number of retained events.
func (t *TimelineSink) Len() int { return len(t.events) }

// Dropped returns the number of events discarded past the limit.
func (t *TimelineSink) Dropped() uint64 { return t.dropped }

// Events returns the retained events in emission order.
func (t *TimelineSink) Events() []Event { return t.events }
