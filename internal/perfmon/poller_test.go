package perfmon

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/metrics"
)

func TestPollerSnapshot(t *testing.T) {
	p := NewPoller(time.Hour) // interval irrelevant: Start polls once synchronously
	if p.Snapshot() != nil {
		t.Fatal("snapshot before Start")
	}
	p.Start()
	defer p.Stop()
	s := p.Snapshot()
	if s == nil {
		t.Fatal("no snapshot after Start")
	}
	if s.HeapInUseBytes == 0 || s.TotalBytes == 0 {
		t.Errorf("memory gauges empty: %+v", s)
	}
	if s.Goroutines == 0 {
		t.Error("goroutine gauge empty")
	}
	if int(s.GoMaxProcs) != runtime.GOMAXPROCS(0) {
		t.Errorf("GoMaxProcs = %d, want %d", s.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if s.At.IsZero() {
		t.Error("snapshot timestamp unset")
	}
}

func TestPollerStartStopIdempotent(t *testing.T) {
	p := NewPoller(time.Millisecond)
	p.Start()
	p.Start()
	p.Stop()
	p.Stop()
	p.Start()
	p.Stop()
}

func TestPollerWritePromCoversAllFamilies(t *testing.T) {
	p := NewPoller(time.Hour)

	var empty strings.Builder
	metrics.Write(&empty, p.Collect())
	if empty.Len() != 0 {
		t.Errorf("WriteProm before first poll wrote %q — TYPE lines without samples", empty.String())
	}

	p.Start()
	defer p.Stop()
	var b strings.Builder
	metrics.Write(&b, p.Collect())
	body := b.String()
	for _, name := range RuntimeMetricNames() {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("family %s missing from exposition", name)
		}
		if !strings.Contains(body, "\n"+name) && !strings.HasPrefix(body, name) {
			t.Errorf("family %s has no samples", name)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	if q := histQuantiles(nil); q != (Quantiles{}) {
		t.Errorf("nil histogram → %+v", q)
	}
}
