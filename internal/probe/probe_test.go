package probe

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestKindStringsAndCategories(t *testing.T) {
	seen := make(map[string]bool)
	for k := Kind(0); int(k) < NumKinds; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Errorf("kind %d: bad or duplicate name %q", k, name)
		}
		seen[name] = true
		switch k.Category() {
		case "write", "refresh", "cache", "bank", "request":
		default:
			t.Errorf("kind %s: unexpected category %q", name, k.Category())
		}
	}
	if WriteAlpha.Category() != "write" || RefreshPaused.Category() != "refresh" ||
		CacheEvict.Category() != "cache" || BankBusy.Category() != "bank" ||
		RequestDone.Category() != "request" {
		t.Errorf("category boundaries drifted")
	}
}

func TestProbeFansOut(t *testing.T) {
	c1, c2 := NewCounterSink(), NewCounterSink()
	p := New(c1, nil, c2)
	p.Emit(Event{Kind: WriteAlpha})
	p.Emit(Event{Kind: WriteAlpha})
	p.Emit(Event{Kind: CacheHit})
	for _, c := range []*CounterSink{c1, c2} {
		if got := c.Count(WriteAlpha); got != 2 {
			t.Errorf("Count(WriteAlpha) = %d, want 2", got)
		}
		if got := c.Total(); got != 3 {
			t.Errorf("Total() = %d, want 3", got)
		}
	}
	if got := c1.Counts()["write-alpha"]; got != 2 {
		t.Errorf("Counts()[write-alpha] = %d, want 2", got)
	}
}

func TestTimelineSinkLimit(t *testing.T) {
	s := NewTimelineSink(1, "test", 3)
	for i := 0; i < 5; i++ {
		s.Record(Event{Time: Clock(i)})
		// Request completions are skipped, not retained or dropped.
		s.Record(Event{Time: Clock(i), Kind: RequestDone})
	}
	if s.Len() != 3 || s.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 3 and 2", s.Len(), s.Dropped())
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	s := NewTimelineSink(7, "WOM-code PCM", 0)
	s.Record(Event{Time: 1000, Dur: 250, Kind: BankBusy, Rank: 0, Bank: 3, Row: 42})
	s.Record(Event{Time: 1250, Kind: WriteAlpha, Rank: 0, Bank: 3, Row: 42})
	s.Record(Event{Time: 2000, Dur: 500, Kind: RefreshPaused, Rank: 1, Bank: -1, Row: 7})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tr ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not trace-event JSON: %v", err)
	}

	var names []string
	meta := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" {
			meta[ev.Name]++
			continue
		}
		names = append(names, ev.Name)
		if ev.Pid != 7 {
			t.Errorf("event %s: pid = %d, want 7", ev.Name, ev.Pid)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				t.Errorf("span %s: dur = %v, want > 0", ev.Name, ev.Dur)
			}
		case "i":
			if ev.Scope != "t" {
				t.Errorf("instant %s: scope = %q, want t", ev.Name, ev.Scope)
			}
		default:
			t.Errorf("event %s: unexpected phase %q", ev.Name, ev.Ph)
		}
	}
	if meta["process_name"] != 1 || meta["thread_name"] != 2 {
		t.Errorf("metadata = %v, want 1 process_name and 2 thread_name", meta)
	}
	want := []string{"bank-busy", "write-alpha", "refresh-paused"}
	if len(names) != len(want) {
		t.Fatalf("events = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("events[%d] = %q, want %q (sorted by start time)", i, names[i], want[i])
		}
	}
	// Distinct tracks: bank 3 of rank 0 vs rank-wide track of rank 1.
	if trackID(0, 3) == trackID(1, -1) {
		t.Errorf("track ids collide")
	}
	// ts is µs: the 1000 ns event must surface at 1 µs.
	if tr.TraceEvents[2].Ph == "X" && tr.TraceEvents[2].Ts != 1.0 {
		t.Logf("events: %+v", tr.TraceEvents)
	}
}
