package memctrl

import "testing"

// testWOM builds one array's womState over a row table of its own, with a
// refresh table depth entries deep.
func testWOM(k, depth int, dirty bool) (*womState, *rowTable) {
	return &womState{k: k, dirty: dirty, table: make([]int32, 0, depth)}, &rowTable{}
}

// TestWOMStateLifecycle walks one row through the k=2 cycle of §3.1/3.2:
// two fast writes, then the α-write, then alternation.
func TestWOMStateLifecycle(t *testing.T) {
	w, rows := testWOM(2, 5, false)
	if w.atLimit(rows, 7) {
		t.Fatal("fresh row at limit")
	}
	if !w.write(rows, 7) { // gen 0 → 1
		t.Fatal("first write not fast")
	}
	if !w.write(rows, 7) { // gen 1 → 2 (limit)
		t.Fatal("second write not fast")
	}
	if !w.atLimit(rows, 7) || !w.hasCandidates() {
		t.Fatal("row not tracked at limit after k writes")
	}
	if w.write(rows, 7) { // α-write
		t.Fatal("write at limit should be α")
	}
	if w.atLimit(rows, 7) || w.hasCandidates() {
		t.Fatal("α-write should leave gen=1 and clear the table entry")
	}
	if !w.write(rows, 7) { // gen 1 → 2
		t.Fatal("post-α write not fast")
	}
	if !w.atLimit(rows, 7) {
		t.Fatal("row should be back at limit")
	}
}

// TestWOMStateRefreshCycle: a committed refresh buys exactly one more fast
// write for k=2.
func TestWOMStateRefreshCycle(t *testing.T) {
	w, rows := testWOM(2, 5, false)
	w.write(rows, 3)
	w.write(rows, 3)
	row, ok := w.popCandidate()
	if !ok || row != 3 {
		t.Fatalf("popCandidate = (%d, %v)", row, ok)
	}
	if w.hasCandidates() {
		t.Fatal("table should be empty after pop")
	}
	w.commitRefresh(rows, 3)
	if w.atLimit(rows, 3) {
		t.Fatal("refreshed row still at limit")
	}
	if !w.write(rows, 3) {
		t.Fatal("write after refresh not fast")
	}
	if !w.atLimit(rows, 3) {
		t.Fatal("row should hit limit again after one write")
	}
}

// TestWOMStateAbort: a preempted refresh returns the row to the table.
func TestWOMStateAbort(t *testing.T) {
	w, rows := testWOM(2, 5, false)
	w.write(rows, 3)
	w.write(rows, 3)
	row, _ := w.popCandidate()
	w.abortRefresh(rows, row)
	if !w.hasCandidates() {
		t.Fatal("aborted refresh lost the row")
	}
	got, _ := w.popCandidate()
	if got != 3 {
		t.Fatalf("re-pushed row = %d", got)
	}
}

// TestWOMStateTableEviction: only the most recent tableSize at-limit rows
// are tracked (the paper's 5-entry row address buffer).
func TestWOMStateTableEviction(t *testing.T) {
	w, rows := testWOM(1, 3, false)
	for row := 0; row < 5; row++ {
		w.write(rows, row) // k=1: every first write hits the limit
	}
	if len(w.table) != 3 {
		t.Fatalf("table holds %d rows, want 3", len(w.table))
	}
	// Oldest rows 0 and 1 must have been evicted.
	for _, want := range []int{2, 3, 4} {
		got, ok := w.popCandidate()
		if !ok || got != want {
			t.Fatalf("popCandidate = (%d,%v), want %d", got, ok, want)
		}
	}
	// Evicted rows are still at limit — they will α-write.
	if !w.atLimit(rows, 0) {
		t.Fatal("evicted row lost its limit state")
	}
}

// TestWOMStateNoDuplicates: re-reaching the limit does not duplicate a
// table entry.
func TestWOMStateNoDuplicates(t *testing.T) {
	w, rows := testWOM(1, 3, false)
	w.write(rows, 9)
	w.pushLimit(9)
	if len(w.table) != 1 {
		t.Fatalf("table = %v, want single entry", w.table)
	}
}

// TestWOMStateK1: the degenerate one-write code — every demand write is an
// α unless a refresh intervenes.
func TestWOMStateK1(t *testing.T) {
	w, rows := testWOM(1, 2, false)
	if !w.write(rows, 4) { // gen 0 → 1: the one budgeted write
		t.Fatal("first write with k=1 should be fast")
	}
	if w.write(rows, 4) {
		t.Fatal("second write with k=1 should be α")
	}
	// After the α the row is at limit again immediately.
	if !w.atLimit(rows, 4) {
		t.Fatal("k=1 row should re-enter the limit after α")
	}
	w2, rows2 := testWOM(1, 2, false)
	w2.write(rows2, 5)
	row, _ := w2.popCandidate()
	w2.commitRefresh(rows2, row)
	if !w2.atLimit(rows2, 5) || !w2.hasCandidates() {
		t.Fatal("k=1 refresh should re-track the row")
	}
}

func TestThresholdCount(t *testing.T) {
	tests := []struct {
		pct   float64
		banks int
		want  int
	}{
		{0, 32, 1},
		{5, 32, 1},
		{10, 32, 3},
		{50, 32, 16},
		{100, 32, 32},
		{10, 4, 1},
	}
	for _, tt := range tests {
		r := RefreshConfig{ThresholdPct: tt.pct}
		if got := r.CandidateBanks(tt.banks); got != tt.want {
			t.Errorf("CandidateBanks(%d) at %v%% = %d, want %d", tt.banks, tt.pct, got, tt.want)
		}
	}
}

// TestWOMStateDirtyStart: under the long-running-system assumption, an
// unseen row is at the rewrite limit — its first write is an α — and the
// normal cycle resumes afterwards.
func TestWOMStateDirtyStart(t *testing.T) {
	w, rows := testWOM(2, 5, true)
	if !w.atLimit(rows, 11) {
		t.Fatal("unseen dirty row not at limit")
	}
	if w.hasCandidates() {
		t.Fatal("unseen rows must not appear in the refresh table")
	}
	if w.write(rows, 11) {
		t.Fatal("first write to a dirty row should be α")
	}
	if !w.write(rows, 11) { // gen 1 → 2
		t.Fatal("second write should be fast")
	}
	if !w.atLimit(rows, 11) || !w.hasCandidates() {
		t.Fatal("row should now be tracked at limit")
	}
}

// TestWOMStateSharedTable: arrays sharing one row table keep separate
// generations for the same row number, and a fresh array reads an unseen
// row as erased while a dirty one reads it at the limit.
func TestWOMStateSharedTable(t *testing.T) {
	rows := &rowTable{shift: 2} // four arrays
	fresh := &womState{k: 2, array: 1, table: make([]int32, 0, 5)}
	dirty := &womState{k: 2, dirty: true, array: 2, table: make([]int32, 0, 5)}
	if !fresh.write(rows, 9) || !fresh.write(rows, 9) {
		t.Fatal("fresh array: first two writes not fast")
	}
	if !fresh.atLimit(rows, 9) || dirty.gen(rows, 9) != 2 {
		t.Fatalf("gens after two fresh writes: fresh %d, dirty %d", fresh.gen(rows, 9), dirty.gen(rows, 9))
	}
	if dirty.write(rows, 9) || dirty.gen(rows, 9) != 1 || !fresh.atLimit(rows, 9) {
		t.Fatal("dirty array's α-write touched the fresh array's row")
	}
	if g := fresh.gen(rows, 8); g != 0 {
		t.Fatalf("unseen fresh row at gen %d", g)
	}
}

// TestRowTablePaging: reads of untouched rows allocate nothing, the first
// write allocates exactly the page holding the row, and a row far from the
// others grows the directory without allocating the pages in between.
func TestRowTablePaging(t *testing.T) {
	var rows rowTable
	rows.shift = 3
	if e := rows.peek(1000, 5); e != (rowEntry{}) || len(rows.dir) != 0 {
		t.Fatalf("peek of an empty table: %+v, directory %d", e, len(rows.dir))
	}
	rows.at(2, 1).gen = 7
	far := 1 << 20
	rows.at(far, 6).tag = 3
	pages := 0
	for _, p := range rows.dir {
		if p != nil {
			pages++
		}
	}
	if want := (far<<3|6)>>rowPageBits + 1; len(rows.dir) != want || pages != 2 {
		t.Fatalf("directory %d entries with %d pages, want %d with 2", len(rows.dir), pages, want)
	}
	if rows.peek(2, 1).gen != 7 || rows.peek(far, 6).tag != 3 || rows.peek(2, 0) != (rowEntry{}) {
		t.Fatal("entries lost or shared across keys")
	}
}
