package perfmon

import (
	"runtime"
	"strings"
	"testing"

	"womcpcm/internal/metrics"
)

func TestReadRuntimeSnapshot(t *testing.T) {
	s := ReadRuntime()
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

// TestPollerWritePromCoversAllFamilies: every womd_runtime_* family has a
// TYPE line and at least one sample — no TYPE line without samples.
func TestPollerWritePromCoversAllFamilies(t *testing.T) {
	var b strings.Builder
	metrics.Write(&b, CollectRuntime())
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
