package memctrl

import "slices"

// womState tracks the per-row WOM-code rewrite budget of one array (a main
// bank or a rank's WOM-cache array) plus the row address table the
// PCM-refresh engine consumes (§3.2).
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
	k    int
	gens map[int]uint32
	// table is the FIFO of at-limit rows awaiting refresh. Its capacity is
	// the table depth, allocated once; entries shift down in place on
	// removal, so the table never reallocates.
	table []int
	// dirty treats unseen rows as already at the rewrite limit (the
	// long-running-system assumption); fresh arrays treat them as erased.
	dirty bool
}

func newWOMState(k, tableSize int, dirty bool) *womState {
	return &womState{k: k, gens: make(map[int]uint32), table: make([]int, 0, tableSize), dirty: dirty}
}

// gen returns the row's consumed-write count, applying the dirty-start
// assumption to rows never seen before.
func (w *womState) gen(row int) int {
	if g, ok := w.gens[row]; ok {
		return int(g)
	}
	if w.dirty {
		return w.k
	}
	return 0
}

// write consumes one write on row and reports whether it was a fast
// RESET-only write (true) or an α-write (false).
func (w *womState) write(row int) bool {
	gen := w.gen(row)
	if gen < w.k {
		gen++
		w.gens[row] = uint32(gen)
		if gen == w.k {
			w.pushLimit(row)
		}
		return true
	}
	// α-write: the row is rewritten with the first-write pattern.
	w.dropLimit(row)
	w.gens[row] = 1
	if w.k == 1 {
		w.pushLimit(row)
	}
	return false
}

// atLimit reports whether row has exhausted its rewrite budget.
func (w *womState) atLimit(row int) bool { return w.gen(row) == w.k }

// hasCandidates reports whether the refresh table is non-empty.
func (w *womState) hasCandidates() bool { return len(w.table) > 0 }

// popCandidate removes and returns the oldest tracked at-limit row.
func (w *womState) popCandidate() (int, bool) {
	if len(w.table) == 0 {
		return 0, false
	}
	row := w.table[0]
	w.table = slices.Delete(w.table, 0, 1)
	return row, true
}

// commitRefresh records a completed refresh: the row is restored to the
// erased pattern and immediately rewritten with its data in the first-write
// pattern, leaving one write consumed (§3.2: "The refreshed PCM row can be
// immediately written by the pattern of the second write").
func (w *womState) commitRefresh(row int) {
	w.gens[row] = 1
	if w.k == 1 {
		w.pushLimit(row)
	}
}

// abortRefresh returns a popped candidate to the table after write pausing
// preempted its refresh; the row is still at the limit.
func (w *womState) abortRefresh(row int) {
	if w.atLimit(row) {
		w.pushLimit(row)
	}
}

// pushLimit records row in the table, keeping only the most recent
// cap(table) entries (the paper's 5-deep row address buffer); older entries
// fall out and will be repaired by a demand α-write instead.
func (w *womState) pushLimit(row int) {
	if slices.Contains(w.table, row) {
		return
	}
	if len(w.table) == cap(w.table) {
		w.table = slices.Delete(w.table, 0, 1)
	}
	w.table = append(w.table, row)
}

// dropLimit removes row from the table if present.
func (w *womState) dropLimit(row int) {
	if i := slices.Index(w.table, row); i >= 0 {
		w.table = slices.Delete(w.table, i, i+1)
	}
}
