package memctrl

import (
	"slices"
	"testing"

	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// requestsCreated counts the Requests a drained controller ever created:
// every one of them has completed and sits on the free list.
func requestsCreated(c *Controller) int {
	n := 0
	for r := c.free; r != nil; r = r.next {
		n++
	}
	return n
}

// queueIDs lists the IDs waiting on s, head first.
func queueIDs(s *server) []uint64 {
	var ids []uint64
	for r := s.head; r != nil; r = r.next {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestServerQueueOrder drives the linked FIFO through every operation:
// plain pops, read-priority pops from the head, the middle and the tail,
// and a cancelled write returning to the head.
func TestServerQueueOrder(t *testing.T) {
	var s server
	for i, op := range []trace.Op{trace.Write, trace.Read, trace.Write, trace.Read} {
		s.enqueue(&Request{ID: uint64(i), Op: op})
	}
	steps := []struct {
		readFirst bool
		want      uint64
		rest      []uint64
	}{
		{true, 1, []uint64{0, 2, 3}}, // first read, from the middle
		{true, 3, []uint64{0, 2}},    // the tail
		{true, 0, []uint64{2}},       // no read left: plain FIFO
		{false, 2, nil},              // the last request
	}
	for i, st := range steps {
		r := s.popPreferred(st.readFirst)
		if r.ID != st.want || r.next != nil {
			t.Fatalf("step %d: popped %d (next %v), want %d unlinked", i, r.ID, r.next, st.want)
		}
		if got := queueIDs(&s); !slices.Equal(got, st.rest) {
			t.Fatalf("step %d: queue %v, want %v", i, got, st.rest)
		}
	}
	if !s.empty() || s.tail != nil {
		t.Fatalf("drained queue not empty: head %v tail %v", s.head, s.tail)
	}
	// pushFront on an empty queue must also set the tail, so a following
	// enqueue lands behind it.
	s.pushFront(&Request{ID: 7})
	s.enqueue(&Request{ID: 8})
	s.pushFront(&Request{ID: 6})
	if got := queueIDs(&s); !slices.Equal(got, []uint64{6, 7, 8}) {
		t.Fatalf("queue after pushFront %v, want [6 7 8]", got)
	}
}

// TestSaturatedBankMemoryBounded keeps one bank busy without a gap: five
// writes arrive at once, then one every 170 ns, the service time of a write
// to the open row, so the queue never drains. The memory a run holds must
// follow the peak queue depth, not the number of admitted requests: the
// queue links the waiting Requests themselves and completed ones are
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
