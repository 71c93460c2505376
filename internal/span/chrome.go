package span

import (
	"sort"

	"womcpcm/internal/probe"
)

// ChromeTraceOf renders one trace's spans as Chrome trace-event JSON
// (the same probe.ChromeTrace schema womsim timelines use, so the output
// opens directly in Perfetto or chrome://tracing). Each service becomes
// a process (pid), with "M" metadata naming it; within a service,
// concurrent spans are packed into lanes (tids) greedily — a span takes
// the first lane whose previous occupant ended before it starts — so the
// waterfall reads top-to-bottom without overlap. Timestamps are
// normalized to the earliest span start and emitted in microseconds;
// span/parent ids and attributes ride along in args.
func ChromeTraceOf(spans []Span) probe.ChromeTrace {
	tr := probe.ChromeTrace{DisplayTimeUnit: "ms"}
	if len(spans) == 0 {
		tr.TraceEvents = []probe.ChromeEvent{}
		return tr
	}
	ordered := append([]Span(nil), spans...)
	sortSpans(ordered)
	t0 := ordered[0].StartNs
	for _, s := range ordered {
		if s.StartNs < t0 {
			t0 = s.StartNs
		}
	}

	services := make([]string, 0, 2)
	seen := make(map[string]bool)
	for _, s := range ordered {
		if !seen[s.Service] {
			seen[s.Service] = true
			services = append(services, s.Service)
		}
	}
	sort.Strings(services)
	pidOf := make(map[string]int, len(services))
	for i, svc := range services {
		pidOf[svc] = i + 1
		tr.AddProcess(i+1, svc)
	}

	// laneEnds[pid] holds each lane's current wall-clock end; spans were
	// sorted by start, so first-fit packing is well-defined.
	laneEnds := make(map[int][]int64)
	for _, s := range ordered {
		pid := pidOf[s.Service]
		lanes := laneEnds[pid]
		tid := -1
		for i, end := range lanes {
			if end <= s.StartNs {
				tid = i
				break
			}
		}
		if tid < 0 {
			tid = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[tid] = s.End()
		laneEnds[pid] = lanes

		args := map[string]any{"span_id": s.SpanID}
		if s.Parent != "" {
			args["parent_id"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		dur := float64(s.DurNs) / 1e3
		if dur <= 0 {
			dur = 0.001 // sub-µs spans still need a visible slice
		}
		tr.TraceEvents = append(tr.TraceEvents, probe.ChromeEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(s.StartNs-t0) / 1e3,
			Dur:  dur,
			Pid:  pid,
			Tid:  tid,
			Args: args,
		})
	}

	tr.Sort()
	return tr
}
