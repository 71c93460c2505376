// Package pcm models the phase change memory device of Li and Mohanram
// (DATE 2014): geometry (§5's channel/rank/bank/row/column organization),
// JEDEC-DDR3-style timing with the paper's PCM latencies, physical address
// mapping, and a functional cell array that stores real bits and enforces
// the programming physics — RESET (1→0) is fast, SET (0→1) is slow, and a
// "RESET-only" row write may not set any cell.
//
// Cell convention: a stored 1 is the SET (polycrystalline, low-resistance)
// state; a stored 0 is the RESET (amorphous, high-resistance) state.
package pcm

import (
	"fmt"
	"math/bits"
)

// Timing collects the latency parameters of the simulated device, in
// nanoseconds. The defaults follow §5 of the paper (after Bheda et al.,
// IGCC 2011, and the DDR3 standard).
type Timing struct {
	// RowRead is the array read latency of a row into the row buffer (27 ns).
	RowRead int64
	// RowWrite is the full row write latency when SET operations are on the
	// critical path (150 ns) — the conventional PCM write and the WOM-code
	// α-write.
	RowWrite int64
	// Reset is the RESET pulse latency (40 ns); a WOM-code in-budget rewrite
	// completes in this time because it needs only RESET operations.
	Reset int64
	// Set is the SET pulse latency (150 ns).
	Set int64
	// Column is the column access latency within an open row (DDR3 CAS
	// analogue): the cost of a row-buffer hit before the data burst.
	Column int64
	// Burst is the data burst duration on the channel for one column access,
	// L_burst/2 in DDR3 terms (the paper's refresh latency formula).
	Burst int64
	// RefreshPeriod is the PCM-refresh scheduling period (4000 ns).
	RefreshPeriod int64
}

// DefaultTiming returns the paper's §5 configuration.
func DefaultTiming() Timing {
	return Timing{
		RowRead:       27,
		RowWrite:      150,
		Reset:         40,
		Set:           150,
		Column:        15, // CAS-class column access into the row buffer
		Burst:         5,  // BL=8 at DDR3-1600: 8 × 0.625 ns ≈ 5 ns
		RefreshPeriod: 4000,
	}
}

// Validate reports whether the timing parameters are physically sensible.
func (t Timing) Validate() error {
	switch {
	case t.RowRead <= 0, t.RowWrite <= 0, t.Reset <= 0, t.Set <= 0, t.Column <= 0, t.Burst <= 0, t.RefreshPeriod <= 0:
		return fmt.Errorf("pcm: all timing parameters must be positive: %+v", t)
	case t.Set < t.Reset:
		return fmt.Errorf("pcm: SET latency %d < RESET latency %d contradicts PCM physics", t.Set, t.Reset)
	case t.RowWrite < t.Set:
		return fmt.Errorf("pcm: row write %d shorter than a SET pulse %d", t.RowWrite, t.Set)
	}
	return nil
}

// Slowdown returns S, the SET/RESET latency ratio of §3.2 (3.75 with the
// default timing).
func (t Timing) Slowdown() float64 { return float64(t.Set) / float64(t.Reset) }

// RefreshLatency returns the burst-mode PCM-refresh latency for a rank of
// banksPerRank banks: t_WR + N_bank·L_burst/2 (§3.2). Burst already denotes
// the L_burst/2 data burst duration.
func (t Timing) RefreshLatency(banksPerRank int) int64 {
	return t.RowWrite + int64(banksPerRank)*t.Burst
}

// Geometry describes the memory organization of §5: a single channel of
// Ranks ranks, BanksPerRank banks each, with RowsPerBank rows of
// ColsPerRow × BitsPerCol bits per device and Devices devices ganged for
// the channel data width.
type Geometry struct {
	Ranks        int
	BanksPerRank int
	RowsPerBank  int
	ColsPerRow   int
	BitsPerCol   int
	Devices      int
}

// DefaultGeometry returns the paper's configuration: 16 ranks × 32 banks,
// 32768 rows, 2048 columns × 4 bits per device, 16 devices forming a 64-bit
// data width.
func DefaultGeometry() Geometry {
	return Geometry{
		Ranks:        16,
		BanksPerRank: 32,
		RowsPerBank:  32768,
		ColsPerRow:   2048,
		BitsPerCol:   4,
		Devices:      16,
	}
}

// Validate checks structural sanity.
func (g Geometry) Validate() error {
	switch {
	case g.Ranks <= 0, g.BanksPerRank <= 0, g.RowsPerBank <= 0,
		g.ColsPerRow <= 0, g.BitsPerCol <= 0, g.Devices <= 0:
		return fmt.Errorf("pcm: all geometry parameters must be positive: %+v", g)
	case g.Ranks&(g.Ranks-1) != 0,
		g.BanksPerRank&(g.BanksPerRank-1) != 0,
		g.RowsPerBank&(g.RowsPerBank-1) != 0,
		g.ColsPerRow&(g.ColsPerRow-1) != 0:
		return fmt.Errorf("pcm: rank/bank/row/column counts must be powers of two: %+v", g)
	}
	return nil
}

// DataWidth returns the channel data width in bits (BitsPerCol × Devices).
func (g Geometry) DataWidth() int { return g.BitsPerCol * g.Devices }

// RowBits returns the number of data bits a row holds across all devices.
func (g Geometry) RowBits() int { return g.ColsPerRow * g.DataWidth() }

// RowBytes returns RowBits in bytes.
func (g Geometry) RowBytes() int { return (g.RowBits() + 7) / 8 }

// CapacityBytes returns the total main-memory capacity.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Ranks) * int64(g.BanksPerRank) * int64(g.RowsPerBank) * int64(g.RowBytes())
}

// Banks returns the total number of banks.
func (g Geometry) Banks() int { return g.Ranks * g.BanksPerRank }

// WOMCacheOverhead returns the WCPCM memory overhead for this geometry with
// a code of the given overhead factor: one WOM-cache array (a bank's worth
// of rows, widened by 1+overhead) per rank, relative to the rank's
// BanksPerRank banks — (1+overhead)/N_bank, the paper's 1.5/32 = 4.7 %.
func (g Geometry) WOMCacheOverhead(codeOverhead float64) float64 {
	return (1 + codeOverhead) / float64(g.BanksPerRank)
}

// Location identifies a row-granular physical location.
type Location struct {
	Rank int
	Bank int
	Row  int
	Col  int
}

// String renders the location for diagnostics.
func (l Location) String() string {
	return fmt.Sprintf("rank %d bank %d row %d col %d", l.Rank, l.Bank, l.Row, l.Col)
}

// AddrMapper translates physical byte addresses to device locations using a
// row-interleaved mapping: consecutive rows map to consecutive banks across
// the channel (bank, then rank), spreading the access stream for
// parallelism the way DRAMSim2's default scheme does.
//
// Address layout, LSB first: column offset | bank | rank | row. The masks
// and shifts are fixed at construction, so Map decodes with shifts and
// masks alone.
type AddrMapper struct {
	g        Geometry
	colBits  uint
	bankBits uint
	rankBits uint
	colMask  uint64
	bankMask uint64
	rankMask uint64
	rowMask  uint64
	// colBytes is the byte width of one column across the devices; a
	// power-of-two width divides by shifting colShift instead.
	colBytes int
	colShift uint
	colPow2  bool
}

// NewAddrMapper builds a mapper for g. The geometry must validate.
func NewAddrMapper(g Geometry) (*AddrMapper, error) {
	m := new(AddrMapper)
	if err := m.Reset(g); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebuilds m in place as a mapper for g, so a mapper held by value
// needs no allocation. The geometry must validate; on error m is unchanged.
func (m *AddrMapper) Reset(g Geometry) error {
	if err := g.Validate(); err != nil {
		return err
	}
	rowBytes := g.RowBytes()
	colBytes := (g.DataWidth() + 7) / 8
	*m = AddrMapper{
		g:        g,
		colBits:  uint(bits.Len(uint(rowBytes - 1))),
		bankBits: uint(bits.TrailingZeros(uint(g.BanksPerRank))),
		rankBits: uint(bits.TrailingZeros(uint(g.Ranks))),
		colMask:  uint64(rowBytes) - 1,
		bankMask: uint64(g.BanksPerRank) - 1,
		rankMask: uint64(g.Ranks) - 1,
		rowMask:  uint64(g.RowsPerBank) - 1,
		colBytes: colBytes,
		colShift: uint(bits.TrailingZeros(uint(colBytes))),
		colPow2:  colBytes&(colBytes-1) == 0,
	}
	return nil
}

// Geometry returns the mapper's geometry.
func (m *AddrMapper) Geometry() Geometry { return m.g }

// Map decodes a physical byte address. Addresses beyond the capacity wrap.
func (m *AddrMapper) Map(addr uint64) Location {
	col := int(addr & m.colMask)
	if m.colPow2 {
		col >>= m.colShift
	} else {
		col /= m.colBytes
	}
	rest := addr >> m.colBits
	bank := rest & m.bankMask
	rest >>= m.bankBits
	rank := rest & m.rankMask
	rest >>= m.rankBits
	return Location{
		Rank: int(rank),
		Bank: int(bank),
		Row:  int(rest & m.rowMask),
		Col:  col,
	}
}

// Unmap composes a physical byte address from a location (column offset 0
// within the column's data width).
func (m *AddrMapper) Unmap(loc Location) uint64 {
	colBytes := uint64(loc.Col) * uint64(m.colBytes)
	addr := uint64(loc.Row)
	addr = addr<<m.rankBits | uint64(loc.Rank)
	addr = addr<<m.bankBits | uint64(loc.Bank)
	addr = addr<<m.colBits | colBytes
	return addr
}
