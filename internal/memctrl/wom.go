package memctrl

import "slices"

// womState tracks the WOM-code rewrite budget of one array (a main bank or
// a rank's WOM-cache array) plus the row address table the PCM-refresh
// engine consumes (§3.2). The per-row generations live in the controller's
// rowTable for the array's kind, passed to every method that reads or
// writes them; womState keeps only the array's own parameters and table.
//
// A row's generation counts writes consumed since the row last held the
// erased (all wits set) pattern:
//
//	gen 0        erased — the next write is the fast first-write pattern
//	0 < gen < k  in budget — the next write is a fast RESET-only rewrite
//	gen == k     at the rewrite limit — the next write is the slow α-write,
//	             or PCM-refresh restores the row in idle time
//
// The α-write rewrites the row with the first-write pattern, so it leaves
// gen = 1, exactly like a completed refresh followed by one demand write.
type womState struct {
	// k is the rewrite budget; 0 means the array is not WOM-coded.
	k int
	// dirty treats unseen rows as already at the rewrite limit (the
	// long-running-system assumption); fresh arrays treat them as erased.
	dirty bool
	// array is the array's index in its rowTable's key space.
	array int
	// table is the FIFO of at-limit rows awaiting refresh: a window of the
	// controller's table slab whose capacity is the table depth, so it never
	// reallocates and an append can never reach a neighbour's entries.
	// Entries shift down in place on removal.
	table []int32
}

// genOf applies the start rule to a row's table entry: an unseen row is at
// the rewrite limit from a dirty start and erased from a fresh one.
func (w *womState) genOf(e rowEntry) int {
	switch {
	case e.seen:
		return int(e.gen)
	case w.dirty:
		return w.k
	default:
		return 0
	}
}

// gen returns the row's consumed-write count.
func (w *womState) gen(t *rowTable, row int) int { return w.genOf(t.peek(row, w.array)) }

// write consumes one write on row and reports whether it was a fast
// RESET-only write (true) or an α-write (false).
func (w *womState) write(t *rowTable, row int) bool {
	e := t.at(row, w.array)
	gen := w.genOf(*e)
	e.seen = true
	if gen < w.k {
		gen++
		e.gen = uint32(gen)
		if gen == w.k {
			w.pushLimit(row)
		}
		return true
	}
	// α-write: the row is rewritten with the first-write pattern.
	w.dropLimit(row)
	e.gen = 1
	if w.k == 1 {
		w.pushLimit(row)
	}
	return false
}

// atLimit reports whether row has exhausted its rewrite budget.
func (w *womState) atLimit(t *rowTable, row int) bool { return w.gen(t, row) == w.k }

// hasCandidates reports whether the refresh table is non-empty.
func (w *womState) hasCandidates() bool { return len(w.table) > 0 }

// popCandidate removes and returns the oldest tracked at-limit row.
func (w *womState) popCandidate() (int, bool) {
	if len(w.table) == 0 {
		return 0, false
	}
	row := w.table[0]
	w.table = slices.Delete(w.table, 0, 1)
	return int(row), true
}

// commitRefresh records a completed refresh: the row is restored to the
// erased pattern and immediately rewritten with its data in the first-write
// pattern, leaving one write consumed (§3.2: "The refreshed PCM row can be
// immediately written by the pattern of the second write").
func (w *womState) commitRefresh(t *rowTable, row int) {
	e := t.at(row, w.array)
	e.gen, e.seen = 1, true
	if w.k == 1 {
		w.pushLimit(row)
	}
}

// abortRefresh returns a popped candidate to the table after write pausing
// preempted its refresh; the row is still at the limit.
func (w *womState) abortRefresh(t *rowTable, row int) {
	if w.atLimit(t, row) {
		w.pushLimit(row)
	}
}

// pushLimit records row in the table, keeping only the most recent
// cap(table) entries (the paper's 5-deep row address buffer); older entries
// fall out and will be repaired by a demand α-write instead.
func (w *womState) pushLimit(row int) {
	if slices.Contains(w.table, int32(row)) {
		return
	}
	if len(w.table) == cap(w.table) {
		w.table = slices.Delete(w.table, 0, 1)
	}
	w.table = append(w.table, int32(row))
}

// dropLimit removes row from the table if present.
func (w *womState) dropLimit(row int) {
	if i := slices.Index(w.table, int32(row)); i >= 0 {
		w.table = slices.Delete(w.table, i, i+1)
	}
}
