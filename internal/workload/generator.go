package workload

import (
	"fmt"
	"math"
	"math/rand"

	"womcpcm/internal/pcm"
	"womcpcm/internal/trace"
)

// LineBytes is the access granularity: one 64-byte cache line, matching the
// 64-bit channel with a DDR3 burst of 8.
const LineBytes = 64

// Generator produces a deterministic synthetic access stream for a Profile.
// It implements trace.Source and never fails.
type Generator struct {
	p       Profile
	rng     *rand.Rand
	zipf    *rand.Zipf
	mapper  *pcm.AddrMapper
	rowPerm []int // footprint row → physical row space, scattering the zipf head

	now          int64
	burstLeft    int
	burstRank    int
	inBurst      bool
	seqRow       int
	seqLine      int
	seqRun       int
	colsPer      int
	lastWriteRow int
	wroteOnce    bool
}

// NewGenerator builds a generator over geometry g, seeded for
// reproducibility. The profile must validate.
func NewGenerator(p Profile, g pcm.Geometry, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mapper, err := pcm.NewAddrMapper(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(p.Name))))
	gen := &Generator{
		p:       p,
		rng:     rng,
		zipf:    rand.NewZipf(rng, p.ZipfS, 1, uint64(p.FootprintRows-1)),
		mapper:  mapper,
		colsPer: g.RowBytes() / LineBytes,
	}
	// A fixed pseudorandom permutation decorrelates Zipf rank from physical
	// placement, so hot rows scatter across banks instead of piling onto
	// bank 0.
	gen.rowPerm = rng.Perm(p.FootprintRows)
	return gen, nil
}

// hashString gives a stable per-benchmark seed perturbation (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// Next implements trace.Source: it yields records forever; callers bound
// the stream with trace.NewLimit or a request budget.
func (g *Generator) Next() (trace.Record, bool) {
	// Arrival process: geometric-length bursts of closely spaced accesses
	// separated by exponential idle gaps.
	if g.burstLeft <= 0 {
		g.burstLeft = 1 + g.geometric(g.p.BurstLen)
		g.now += g.exponential(g.p.MeanGapNs)
		g.inBurst = false // the first access anchors the burst's rank
	} else {
		g.now += g.p.BurstGapNs
	}
	g.burstLeft--

	isRead := g.rng.Float64() < g.p.ReadFraction
	if isRead && g.wroteOnce && g.rng.Float64() < g.p.ReadReuse {
		// Read-after-write row reuse: the read lands on the row most
		// recently stored to, queueing behind the slow write at its bank
		// (and row-hitting once the write completes).
		return g.record(true, g.lastWriteRow, g.rng.Intn(g.colsPer)), true
	}
	var row int
	switch {
	case g.rng.Float64() < g.p.SeqFraction:
		// Streaming cursor: runs of consecutive lines, hopping to the next
		// row (= next bank under row interleaving) after SeqRunLines.
		runLen := g.p.SeqRunLines
		if runLen <= 0 {
			runLen = 2
		}
		if g.seqRun >= runLen {
			g.seqRun = 0
			g.seqRow++
			if g.seqRow >= g.p.FootprintRows {
				// Stripe finished: next sweep reads/writes the following
				// line window of every row (wrapping — streaming kernels
				// iterate over their arrays).
				g.seqRow = 0
				g.seqLine += runLen
				if g.seqLine >= g.colsPer {
					g.seqLine = 0
				}
			}
		}
		col := (g.seqLine + g.seqRun) % g.colsPer
		g.seqRun++
		return g.record(isRead, g.seqRow, col), true
	case !isRead && g.rng.Float64() < g.p.WriteHotFraction:
		// Hot write set: stores cycle roughly uniformly over a bounded set
		// of rows (frame buffers, tables, output arrays), giving each row
		// a rewrite interval of HotRows/write-rate — the reuse pattern the
		// WOM rewrite budget and PCM-refresh feed on.
		row = g.affine(func() int { return g.rng.Intn(g.p.HotRows) })
	default:
		row = g.affine(func() int { return int(g.zipf.Uint64()) })
	}
	col := g.rng.Intn(g.colsPer)
	return g.record(isRead, row, col), true
}

// Err implements trace.Source.
func (*Generator) Err() error { return nil }

// rankOf returns the rank a footprint row maps to.
func (g *Generator) rankOf(row int) int {
	phys := uint64(g.rowPerm[row])
	return g.mapper.Map(phys * uint64(g.mapper.Geometry().RowBytes())).Rank
}

// affine samples a row, biasing later burst accesses toward the burst's
// anchor rank with probability RankAffinity (rejection sampling, bounded).
func (g *Generator) affine(sample func() int) int {
	row := sample()
	if !g.inBurst || g.rng.Float64() >= g.p.RankAffinity {
		return row
	}
	for try := 0; try < 24 && g.rankOf(row) != g.burstRank; try++ {
		row = sample()
	}
	return row
}

func (g *Generator) record(isRead bool, row, col int) trace.Record {
	op := trace.Write
	if isRead {
		op = trace.Read
	} else {
		g.lastWriteRow = row
		g.wroteOnce = true
	}
	if !g.inBurst {
		g.inBurst = true
		g.burstRank = g.rankOf(row)
	}
	phys := uint64(g.rowPerm[row])
	addr := phys*uint64(g.mapper.Geometry().RowBytes()) + uint64(col*LineBytes)
	return trace.Record{Op: op, Addr: addr, Time: g.now}
}

// exponential draws an exponential gap with the given mean, clamped to at
// least 1 ns.
func (g *Generator) exponential(mean float64) int64 {
	v := int64(math.Round(g.rng.ExpFloat64() * mean))
	if v < 1 {
		v = 1
	}
	return v
}

// geometric draws a geometric variate with the given mean (≥ 1).
func (g *Generator) geometric(mean int) int {
	if mean <= 1 {
		return 0
	}
	p := 1 / float64(mean)
	n := 0
	for g.rng.Float64() > p && n < 16*mean {
		n++
	}
	return n
}

// Generate materializes n records into a slice.
func Generate(p Profile, g pcm.Geometry, seed int64, n int) ([]trace.Record, error) {
	gen, err := NewGenerator(p, g, seed)
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, max(n, 0))
	for i := range recs {
		rec, ok := gen.Next()
		if !ok {
			recs = recs[:i]
			break
		}
		recs[i] = rec
	}
	if len(recs) != n {
		return nil, fmt.Errorf("workload: generator yielded %d of %d records", len(recs), n)
	}
	return recs, nil
}
