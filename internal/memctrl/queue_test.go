package memctrl

import (
	"slices"
	"testing"

	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// requestsCreated counts the Requests a controller ever created: the
// slab's population, less the sentinel slot.
func requestsCreated(c *Controller) int { return len(c.reqs) - 1 }

// queueIDs lists the IDs waiting on s, head first.
func queueIDs(reqs []Request, s *server) []uint64 {
	var ids []uint64
	for i := s.head; i != 0; i = reqs[i].next {
		ids = append(ids, reqs[i].ID)
	}
	return ids
}

// TestServerQueueOrder drives the linked FIFO through every operation:
// plain pops, read-priority pops from the head, the middle and the tail,
// and a cancelled write returning to the head. Slot i of the slab holds
// the request with ID i; slot 0 is the sentinel.
func TestServerQueueOrder(t *testing.T) {
	reqs := make([]Request, 9)
	for i := range reqs {
		reqs[i].ID = uint64(i)
	}
	var s server
	for i, op := range []trace.Op{trace.Write, trace.Read, trace.Write, trace.Read} {
		reqs[i+1].Op = op
		s.enqueue(reqs, int32(i+1))
	}
	steps := []struct {
		readFirst bool
		want      uint64
		rest      []uint64
	}{
		{true, 2, []uint64{1, 3, 4}}, // first read, from the middle
		{true, 4, []uint64{1, 3}},    // the tail
		{true, 1, []uint64{3}},       // no read left: plain FIFO
		{false, 3, nil},              // the last request
	}
	for i, st := range steps {
		r := s.popPreferred(reqs, st.readFirst)
		if reqs[r].ID != st.want || reqs[r].next != 0 {
			t.Fatalf("step %d: popped %d (next %d), want %d unlinked", i, reqs[r].ID, reqs[r].next, st.want)
		}
		if got := queueIDs(reqs, &s); !slices.Equal(got, st.rest) {
			t.Fatalf("step %d: queue %v, want %v", i, got, st.rest)
		}
	}
	if !s.empty() || s.tail != 0 {
		t.Fatalf("drained queue not empty: head %d tail %d", s.head, s.tail)
	}
	// pushFront on an empty queue must also set the tail, so a following
	// enqueue lands behind it.
	s.pushFront(reqs, 7)
	s.enqueue(reqs, 8)
	s.pushFront(reqs, 6)
	if got := queueIDs(reqs, &s); !slices.Equal(got, []uint64{6, 7, 8}) {
		t.Fatalf("queue after pushFront %v, want [6 7 8]", got)
	}
}

// TestSaturatedBankMemoryBounded keeps one bank busy without a gap: five
// writes arrive at once, then one every 170 ns, the service time of a write
// to the open row, so the queue never drains. The memory a run holds must
// follow the peak queue depth, not the number of admitted requests: the
// queue links the waiting Requests by slab index and completed slots are
// reused, so at most six ever exist (the initial five plus the arrival
// that lands just before each completion), and a run of 100k writes
// allocates exactly as much as a run of 10k.
func TestSaturatedBankMemoryBounded(t *testing.T) {
	g := testGeometry()
	addr := addrOf(t, g, 0, 0, 1)
	saturating := func(n int) []trace.Record {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Op: trace.Write, Addr: addr}
			if i >= 5 {
				recs[i].Time = int64(i-4) * 170
			}
		}
		return recs
	}
	measure := func(recs []trace.Record) (float64, *Controller, *stats.Run) {
		var c *Controller
		var run *stats.Run
		allocs := testing.AllocsPerRun(2, func() {
			var err error
			if c, err = New(testConfig(nil, nil, nil)); err != nil {
				t.Fatal(err)
			}
			if run, err = c.Run(trace.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, c, run
	}
	short, _, _ := measure(saturating(10000))
	long, c, run := measure(saturating(100000))
	if run.WriteLatency.Count != 100000 {
		t.Fatalf("completed %d writes, want 100000", run.WriteLatency.Count)
	}
	// A steady backlog: the last write waits behind the same four as every
	// other, so no latency exceeds about five service times.
	if run.WriteLatency.Max > 6*197 {
		t.Fatalf("max write latency %d: the backlog grew", run.WriteLatency.Max)
	}
	if got := requestsCreated(c); got > 6 {
		t.Errorf("%d Requests created for a backlog of at most 6", got)
	}
	if short != long {
		t.Errorf("allocs per run grow with admitted requests: %v at 10k, %v at 100k", short, long)
	}
}
