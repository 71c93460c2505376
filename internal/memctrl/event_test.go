package memctrl

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEventHeapOrder interleaves random pushes and pops, many on tied
// times, and checks every pop returns the (time, seq) minimum of what the
// heap holds — found by scanning a reference list.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var ref []event
	var seq uint64
	for i := 0; i < 20000; i++ {
		if len(ref) == 0 || rng.Intn(3) > 0 {
			e := event{time: Clock(rng.Intn(64)), seq: seq}
			seq++
			h.push(e)
			ref = append(ref, e)
			continue
		}
		m := 0
		for j := range ref {
			if ref[j].before(ref[m]) {
				m = j
			}
		}
		got, want := h.pop(), ref[m]
		ref = slices.Delete(ref, m, m+1)
		if got != want {
			t.Fatalf("pop %d: got (%d, %d), want (%d, %d)", i, got.time, got.seq, want.time, want.seq)
		}
	}
	if len(h) != len(ref) {
		t.Fatalf("heap holds %d events, reference %d", len(h), len(ref))
	}
}
