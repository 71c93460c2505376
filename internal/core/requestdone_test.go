package core

import (
	"testing"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/probe"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// requestDoneSink totals probe.RequestDone events by direction.
type requestDoneSink struct {
	reads, writes stats.Latency
	maxEnd        int64
}

func (s *requestDoneSink) Record(ev probe.Event) {
	if ev.Kind != probe.RequestDone {
		return
	}
	if ev.Read {
		s.reads.Count++
		s.reads.Sum += ev.Dur
	} else {
		s.writes.Count++
		s.writes.Sum += ev.Dur
	}
	s.maxEnd = max(s.maxEnd, ev.Time+ev.Dur)
}

// check asserts the events account exactly for run's demand latencies: one
// per trace record (so internal victim write-backs emit none), the same
// count and sum per direction, and no completion after the run ends.
func (s *requestDoneSink) check(t *testing.T, label string, run *stats.Run, records int) {
	t.Helper()
	if s.reads.Count != run.ReadLatency.Count || s.reads.Sum != run.ReadLatency.Sum {
		t.Errorf("%s: reads %d events summing %d ns, run has %d summing %d ns",
			label, s.reads.Count, s.reads.Sum, run.ReadLatency.Count, run.ReadLatency.Sum)
	}
	if s.writes.Count != run.WriteLatency.Count || s.writes.Sum != run.WriteLatency.Sum {
		t.Errorf("%s: writes %d events summing %d ns, run has %d summing %d ns",
			label, s.writes.Count, s.writes.Sum, run.WriteLatency.Count, run.WriteLatency.Sum)
	}
	if n := s.reads.Count + s.writes.Count; n != uint64(records) {
		t.Errorf("%s: %d request-done events for %d trace records", label, n, records)
	}
	if s.maxEnd > run.SimulatedNs {
		t.Errorf("%s: a request completes at %d ns, after the run ends at %d ns", label, s.maxEnd, run.SimulatedNs)
	}
}

func TestRequestDoneMatchesRunLatency(t *testing.T) {
	recs := goldenTrace(t, "qsort", goldenRequests)
	for _, a := range Arches() {
		sys, err := NewSystem(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sink := &requestDoneSink{}
		cfg := sys.Config()
		cfg.Probe = probe.New(sink)
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := ctrl.Run(trace.NewSliceSource(recs))
		if err != nil {
			t.Fatal(err)
		}
		if a == WCPCM && run.VictimWrites == 0 {
			t.Fatalf("%s: no victim write-backs; the trace no longer exercises internal requests", a)
		}
		sink.check(t, a.String(), run, len(recs))
	}

	sys, err := NewSystem(Refresh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink := &requestDoneSink{}
	cfg := sys.Config()
	cfg.Probe = probe.New(sink)
	mc, err := memctrl.NewMultiChannel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs = goldenTrace(t, "qsort", 4*goldenRequests)
	run, err := mc.Run(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	sink.check(t, "4-channel "+Refresh.String(), run, len(recs))
}
