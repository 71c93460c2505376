package sim

import (
	"context"
	"sync"
	"testing"

	"womcpcm/internal/trace"
)

func progressTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		op := trace.Write
		if i%3 == 0 {
			op = trace.Read
		}
		recs[i] = trace.Record{Op: op, Addr: uint64(i%512) * 16384, Time: int64(i) * 60}
	}
	return recs
}

// TestReplayProgress checks the replay experiment reports (done, total)
// to an Observer's Progress: the total is len(recs) × 4 architectures,
// reports are strictly increasing under Parallelism 1, and the final report
// accounts for every record.
func TestReplayProgress(t *testing.T) {
	recs := progressTrace(3 * progressStride)
	var (
		mu      sync.Mutex
		reports [][2]int64
	)
	ctx := WithObserver(context.Background(), Observer{Progress: func(done, total int64) {
		mu.Lock()
		reports = append(reports, [2]int64{done, total})
		mu.Unlock()
	}})
	cfg := ExpConfig{Requests: len(recs), Parallelism: 1, Ctx: ctx}
	if _, err := Replay(cfg, "progress", recs); err != nil {
		t.Fatal(err)
	}

	total := int64(len(recs)) * 4
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	last := int64(0)
	for _, r := range reports {
		if r[1] != total {
			t.Fatalf("reported total = %d, want %d", r[1], total)
		}
		if r[0] <= last || r[0] > total {
			t.Fatalf("report %d not in (%d, %d]", r[0], last, total)
		}
		last = r[0]
	}
	if last != total {
		t.Errorf("final report = %d, want %d", last, total)
	}
}

// TestReplayWithoutProgress checks a bare context replays identically: the
// progress decoration is skipped entirely when no func is attached.
func TestReplayWithoutProgress(t *testing.T) {
	recs := progressTrace(2000)
	cfg := ExpConfig{Requests: len(recs), Parallelism: 1}
	res, err := Replay(cfg, "plain", recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != len(recs) {
		t.Errorf("records = %d, want %d", res.Records, len(recs))
	}
}
