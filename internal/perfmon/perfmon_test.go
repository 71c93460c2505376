package perfmon

import (
	"testing"
	"time"
)

func TestSpanRecordsWork(t *testing.T) {
	span := Begin()
	span.Events().Add(5000)
	// Allocate measurably and burn a little wall clock.
	sink := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	time.Sleep(2 * time.Millisecond)
	rec := span.End()
	_ = sink
	if rec.WallNs < int64(2*time.Millisecond) {
		t.Errorf("WallNs = %d, want ≥ 2ms", rec.WallNs)
	}
	if rec.SimEvents != 5000 {
		t.Errorf("SimEvents = %d, want 5000", rec.SimEvents)
	}
	if rec.EventsPerSec <= 0 || rec.NsPerEvent <= 0 {
		t.Errorf("rates not derived: %+v", rec)
	}
	// The allocs counter can lag a few not-yet-flushed mcache pages, so
	// assert half the allocated volume rather than an exact floor.
	if rec.AllocBytes < 128*4096 {
		t.Errorf("AllocBytes = %d, want ≥ %d", rec.AllocBytes, 128*4096)
	}
	if rec.AllocObjects == 0 {
		t.Error("AllocObjects = 0")
	}
	if rec.CPUNs < 0 {
		t.Errorf("CPUNs = %d", rec.CPUNs)
	}
}

// BenchmarkSpan measures a span's fixed per-job cost.
func BenchmarkSpan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Begin()
		s.Events().Add(1)
		_ = s.End()
	}
}

func TestRates(t *testing.T) {
	perSec, nsPer := Rates(1_000_000, time.Second)
	if perSec != 1e6 || nsPer != 1000 {
		t.Errorf("Rates = %g, %g; want 1e6, 1000", perSec, nsPer)
	}
	if perSec, nsPer := Rates(0, time.Second); perSec != 0 || nsPer != 0 {
		t.Error("zero events must yield zero rates")
	}
	if perSec, nsPer := Rates(5, 0); perSec != 0 || nsPer != 0 {
		t.Error("zero wall must yield zero rates")
	}
}

func TestSpanEventsSharedCounter(t *testing.T) {
	span := Begin()
	c := span.Events()
	c.Add(3)
	c.Add(4)
	if got := span.LiveEvents(); got != 7 {
		t.Errorf("LiveEvents = %d, want 7", got)
	}
}
