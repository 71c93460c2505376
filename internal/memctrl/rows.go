package memctrl

import "slices"

// rowTable holds per-row state for a set of arrays that share one key
// space: every main-memory bank, keyed by the row's address-order index
// row<<(rankBits+bankBits) | rank<<bankBits | bank, or every rank's
// WOM-cache array, keyed by row<<rankBits | rank. The array index is the
// low field of the key, so shift is log2 of the number of arrays.
//
// Storage is paged: a page of rowPageSize entries is allocated the first
// time one of its rows is written, and the page directory grows on demand
// up to the highest page touched. Memory therefore follows the rows a run
// touches (a generated workload's footprint fits in 28 pages), not the
// 16.8M rows of the default geometry. Pages never move, so an entry
// pointer from at stays valid until the table is reset.
//
// A reset table keeps its pages for reuse: reset moves them to the spare
// stack the controller shares between its tables, and at takes a page from
// there, cleared, before allocating one.
type rowTable struct {
	shift uint
	dir   []*rowPage
	spare *[]*rowPage
}

const (
	rowPageBits = 9
	rowPageSize = 1 << rowPageBits
)

type rowPage [rowPageSize]rowEntry

// rowEntry is one row's state; the zero value is a row never written.
type rowEntry struct {
	// gen counts WOM writes consumed since the row last held the erased
	// pattern. It is meaningful only once seen is set: an unseen row
	// follows its array's start rule (see womState.genOf).
	gen  uint32
	seen bool
	// valid and tag are a WOM-cache row's selector field: the valid bit
	// and the main-memory bank the cached row belongs to.
	valid bool
	tag   int32
}

// peek returns the state of row in array without allocating; a row on an
// untouched page reads as the zero entry.
func (t *rowTable) peek(row, array int) rowEntry {
	k := row<<t.shift | array
	if p := k >> rowPageBits; p < len(t.dir) && t.dir[p] != nil {
		return t.dir[p][k&(rowPageSize-1)]
	}
	return rowEntry{}
}

// at returns the entry of row in array for update, allocating its page,
// and growing the directory to reach it, on first touch.
func (t *rowTable) at(row, array int) *rowEntry {
	k := row<<t.shift | array
	p := k >> rowPageBits
	if p >= len(t.dir) {
		// Grown explicitly: under the race detector an append of a made
		// slice allocates the temporary one.
		n := len(t.dir)
		t.dir = slices.Grow(t.dir, p+1-n)[:p+1]
		clear(t.dir[n:])
	}
	if t.dir[p] == nil {
		t.dir[p] = t.newPage()
	}
	return &t.dir[p][k&(rowPageSize-1)]
}

// newPage returns an all-zero page: a spare one when there is one.
func (t *rowTable) newPage() *rowPage {
	if t.spare == nil || len(*t.spare) == 0 {
		return new(rowPage)
	}
	sp := *t.spare
	pg := sp[len(sp)-1]
	*t.spare = sp[:len(sp)-1]
	*pg = rowPage{}
	return pg
}

// reset empties the table for arrays keyed with shift: its pages move to
// spare, and its directory keeps its capacity. Every entry pointer into the
// table is invalid afterwards.
func (t *rowTable) reset(shift uint, spare *[]*rowPage) {
	for i, pg := range t.dir {
		if pg != nil {
			*spare = append(*spare, pg)
			t.dir[i] = nil
		}
	}
	t.dir, t.shift, t.spare = t.dir[:0], shift, spare
}
