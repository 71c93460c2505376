package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The Chrome trace-event format (the JSON flavor Perfetto and
// chrome://tracing open directly): a traceEvents array of instant ("i") and
// complete ("X") events plus process/thread name metadata ("M"). Timestamps
// and durations are microseconds; the simulator's nanosecond clock maps to
// fractional µs, which both viewers accept.

// ChromeEvent is one trace-event record. Exported so tests and tools can
// json.Unmarshal generated timelines against the schema.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object. Both trace-event
// exporters build one: simulator timelines here, and request span
// waterfalls in internal/span.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// AddProcess appends the process_name metadata record that labels trace
// process pid.
func (tr *ChromeTrace) AddProcess(pid int, name string) {
	tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name},
	})
}

// Sort puts the metadata records first, then the events stably by start
// time. The format does not require an order, but a stable one keeps diffs
// and streaming viewers happy.
func (tr *ChromeTrace) Sort() {
	sort.SliceStable(tr.TraceEvents, func(i, j int) bool {
		mi, mj := tr.TraceEvents[i].Ph == "M", tr.TraceEvents[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return tr.TraceEvents[i].Ts < tr.TraceEvents[j].Ts
	})
}

// trackID folds (rank, bank) into a stable thread id: banks of rank r are
// r·1000+bank+1 and the rank-scoped track (cache array, rank refresh
// scheduling) is r·1000. One track per bank is the Perfetto view the
// exporter promises.
func trackID(rank, bank int) int { return rank*1000 + bank + 1 }

// trackName labels a track for the thread_name metadata.
func trackName(rank, bank int) string {
	if bank < 0 {
		return fmt.Sprintf("rank %d (rank-wide)", rank)
	}
	return fmt.Sprintf("rank %d bank %d", rank, bank)
}

// ChromeTraceOf converts the sinks' event streams into one trace object.
// Each sink contributes its events under its own process (Pid/Label);
// events are ordered by start time within the merged stream.
func ChromeTraceOf(sinks ...*TimelineSink) ChromeTrace {
	tr := ChromeTrace{DisplayTimeUnit: "ns"}
	for _, s := range sinks {
		if s == nil {
			continue
		}
		tr.AddProcess(s.Pid, s.Label)
		named := make(map[int]bool)
		for _, ev := range s.Events() {
			tid := trackID(ev.Rank, ev.Bank)
			if !named[tid] {
				named[tid] = true
				tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
					Name: "thread_name", Ph: "M", Pid: s.Pid, Tid: tid,
					Args: map[string]any{"name": trackName(ev.Rank, ev.Bank)},
				})
			}
			ce := ChromeEvent{
				Name: ev.Kind.String(),
				Cat:  ev.Kind.Category(),
				Ts:   float64(ev.Time) / 1e3,
				Pid:  s.Pid,
				Tid:  tid,
			}
			if ev.Row >= 0 {
				ce.Args = map[string]any{"row": ev.Row}
			}
			if ev.Dur > 0 {
				ce.Ph = "X"
				ce.Dur = float64(ev.Dur) / 1e3
			} else {
				ce.Ph = "i"
				ce.Scope = "t"
			}
			tr.TraceEvents = append(tr.TraceEvents, ce)
		}
	}
	tr.Sort()
	return tr
}

// WriteChromeTrace renders the sinks as Chrome trace-event JSON on w. The
// output opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, sinks ...*TimelineSink) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTraceOf(sinks...))
}
