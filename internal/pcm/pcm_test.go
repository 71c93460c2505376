package pcm

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDefaultTimingMatchesPaper(t *testing.T) {
	tm := DefaultTiming()
	if tm.RowRead != 27 || tm.RowWrite != 150 || tm.Reset != 40 || tm.Set != 150 {
		t.Errorf("timing %+v does not match §5 (27/150/40/150)", tm)
	}
	if tm.RefreshPeriod != 4000 {
		t.Errorf("refresh period %d, want 4000", tm.RefreshPeriod)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := tm.Slowdown(); math.Abs(s-3.75) > 1e-12 {
		t.Errorf("slowdown = %v, want 3.75", s)
	}
}

func TestTimingValidate(t *testing.T) {
	bad := []Timing{
		{},
		{RowRead: 27, RowWrite: 150, Reset: 150, Set: 40, Burst: 5, RefreshPeriod: 4000},  // SET faster than RESET
		{RowRead: 27, RowWrite: 100, Reset: 40, Set: 150, Burst: 5, RefreshPeriod: 4000},  // row write < SET
		{RowRead: -1, RowWrite: 150, Reset: 40, Set: 150, Burst: 5, RefreshPeriod: 4000},  // negative
		{RowRead: 27, RowWrite: 150, Reset: 40, Set: 150, Burst: 5, RefreshPeriod: -4000}, // negative period
	}
	for i, tm := range bad {
		if err := tm.Validate(); err == nil {
			t.Errorf("case %d: bad timing validated: %+v", i, tm)
		}
	}
}

func TestRefreshLatencyFormula(t *testing.T) {
	tm := DefaultTiming()
	// t_WR + N_bank · L_burst/2 with 32 banks: 150 + 32·5 = 310 ns.
	if got := tm.RefreshLatency(32); got != 310 {
		t.Errorf("RefreshLatency(32) = %d, want 310", got)
	}
	if got := tm.RefreshLatency(4); got != 170 {
		t.Errorf("RefreshLatency(4) = %d, want 170", got)
	}
}

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.DataWidth() != 64 {
		t.Errorf("data width = %d, want 64 (§5)", g.DataWidth())
	}
	if g.Banks() != 512 {
		t.Errorf("banks = %d, want 512", g.Banks())
	}
	if g.RowBytes() != 2048*8 {
		t.Errorf("row bytes = %d, want 16384", g.RowBytes())
	}
	// 4.7% WCPCM overhead claim: 1.5/32.
	if got := g.WOMCacheOverhead(0.5); math.Abs(got-1.5/32) > 1e-12 {
		t.Errorf("WOM-cache overhead = %v, want %v", got, 1.5/32)
	}
}

func TestGeometryValidate(t *testing.T) {
	g := DefaultGeometry()
	g.Ranks = 3 // not a power of two
	if err := g.Validate(); err == nil {
		t.Error("non-power-of-two rank count validated")
	}
	g = DefaultGeometry()
	g.RowsPerBank = 0
	if err := g.Validate(); err == nil {
		t.Error("zero rows validated")
	}
}

func TestAddrMapperRoundTrip(t *testing.T) {
	m, err := NewAddrMapper(DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	g := m.Geometry()
	prop := func(rank, bank, row, col uint16) bool {
		loc := Location{
			Rank: int(rank) % g.Ranks,
			Bank: int(bank) % g.BanksPerRank,
			Row:  int(row) % g.RowsPerBank,
			Col:  int(col) % g.ColsPerRow,
		}
		got := m.Map(m.Unmap(loc))
		return got == loc
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// referenceMap is the decode Map implements, computed from the geometry on
// every call.
func referenceMap(g Geometry, addr uint64) Location {
	colBits := uint(bits.Len(uint(g.RowBytes() - 1)))
	rest := addr >> colBits
	bank := rest & uint64(g.BanksPerRank-1)
	rest >>= uint(bits.TrailingZeros(uint(g.BanksPerRank)))
	rank := rest & uint64(g.Ranks-1)
	rest >>= uint(bits.TrailingZeros(uint(g.Ranks)))
	return Location{
		Rank: int(rank),
		Bank: int(bank),
		Row:  int(rest & uint64(g.RowsPerBank-1)),
		Col:  int(addr&uint64(g.RowBytes()-1)) / ((g.DataWidth() + 7) / 8),
	}
}

// TestAddrMapperMatchesReference checks Map's precomputed masks and shifts
// against the reference decode on random addresses, for power-of-two and
// other column widths and row sizes.
func TestAddrMapperMatchesReference(t *testing.T) {
	for _, g := range []Geometry{
		DefaultGeometry(),
		{Ranks: 2, BanksPerRank: 4, RowsPerBank: 64, ColsPerRow: 16, BitsPerCol: 8, Devices: 8},
		{Ranks: 4, BanksPerRank: 8, RowsPerBank: 1024, ColsPerRow: 2048, BitsPerCol: 4, Devices: 6}, // 3-byte columns
		{Ranks: 1, BanksPerRank: 2, RowsPerBank: 16, ColsPerRow: 8, BitsPerCol: 5, Devices: 1},      // 5-byte rows
	} {
		m, err := NewAddrMapper(g)
		if err != nil {
			t.Fatal(err)
		}
		prop := func(addr uint64) bool { return m.Map(addr) == referenceMap(g, addr) }
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%+v: %v", g, err)
		}
	}
}

// TestAddrMapperInterleaving: consecutive rows of the address space land in
// consecutive banks, so streaming accesses spread across the channel.
func TestAddrMapperInterleaving(t *testing.T) {
	g := Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 8, ColsPerRow: 4, BitsPerCol: 8, Devices: 1}
	m, err := NewAddrMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	stride := uint64(g.RowBytes())
	seenBank := map[int]bool{}
	for i := uint64(0); i < 4; i++ {
		loc := m.Map(i * stride)
		if loc.Row != 0 {
			t.Errorf("addr %d: row %d, want 0 within first bank sweep", i*stride, loc.Row)
		}
		seenBank[loc.Bank] = true
	}
	if len(seenBank) != 4 {
		t.Errorf("4 consecutive rows hit %d distinct banks, want 4", len(seenBank))
	}
	// After sweeping all banks of all ranks, the row index increments.
	loc := m.Map(uint64(g.Banks()) * stride)
	if loc.Row != 1 || loc.Bank != 0 || loc.Rank != 0 {
		t.Errorf("wraparound maps to %v, want rank 0 bank 0 row 1", loc)
	}
}

func TestAddrMapperRejectsBadGeometry(t *testing.T) {
	if _, err := NewAddrMapper(Geometry{}); err == nil {
		t.Error("accepted zero geometry")
	}
}

func TestCapacity(t *testing.T) {
	g := DefaultGeometry()
	want := int64(16) * 32 * 32768 * 16384
	if got := g.CapacityBytes(); got != want {
		t.Errorf("capacity = %d, want %d", got, want)
	}
}
