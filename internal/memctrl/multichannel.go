package memctrl

import (
	"fmt"

	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// MultiChannel simulates an n-channel memory system: n independent
// channels (each with the full per-channel geometry) with consecutive
// cache lines striped across channels. The paper evaluates a single
// channel (§5); multi-channel is the §1 "exascale capacity" scaling axis —
// channels multiply both capacity and bandwidth, and because each channel
// has its own WOM state and refresh engine, the architectures compose
// unchanged.
//
// Address mapping: the line-interleave bits directly above the 64-byte
// line offset select the channel, so streams fan out across channels.
type MultiChannel struct {
	cfg      Config
	channels int
	// ctrl simulates every channel in turn, Reset to cfg before each.
	ctrl *Controller
}

// lineShift is the log2 of the striping granularity (one 64-byte line).
const lineShift = 6

// NewMultiChannel builds an n-channel system; each channel gets cfg's full
// geometry. n must be a power of two.
func NewMultiChannel(cfg Config, n int) (*MultiChannel, error) {
	if err := validateChannels(cfg, n); err != nil {
		return nil, err
	}
	return &MultiChannel{cfg: cfg, channels: n, ctrl: new(Controller)}, nil
}

func validateChannels(cfg Config, n int) error {
	if n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("memctrl: channel count must be a positive power of two, got %d", n)
	}
	return cfg.Validate()
}

// RunChannels is NewMultiChannel(cfg, n).Run for a caller that owns a
// controller and holds the records: the channels run one after another on
// ctrl, Reset to cfg before each, and recs is read in place, not copied.
// The result is bit-identical to MultiChannel.Run's.
func RunChannels(ctrl *Controller, cfg Config, n int, recs []trace.Record) (*stats.Run, error) {
	if err := validateChannels(cfg, n); err != nil {
		return nil, err
	}
	m := MultiChannel{cfg: cfg, channels: n, ctrl: ctrl}
	return m.run(recs)
}

// Channels returns the channel count.
func (m *MultiChannel) Channels() int { return m.channels }

// channelOf extracts the channel index and the address as seen by that
// channel's controller (channel bits squeezed out).
func (m *MultiChannel) channelOf(addr uint64) (int, uint64) {
	if m.channels == 1 {
		return 0, addr
	}
	mask := uint64(m.channels - 1)
	ch := int(addr >> lineShift & mask)
	local := addr&(1<<lineShift-1) | (addr >> lineShift / uint64(m.channels) << lineShift)
	return ch, local
}

// Run splits the trace across channels and simulates them. Channels are
// fully independent, so each is run to completion on its own sub-trace, one
// after another on one controller; statistics are merged (latency
// distributions, class and event counters).
func (m *MultiChannel) Run(src trace.Source) (*stats.Run, error) {
	recs, err := trace.Collect(src)
	if err != nil {
		return nil, err
	}
	return m.run(recs)
}

func (m *MultiChannel) run(recs []trace.Record) (*stats.Run, error) {
	var merged *stats.Run
	for ch := 0; ch < m.channels; ch++ {
		if err := m.ctrl.Reset(m.cfg); err != nil {
			return nil, err
		}
		run, err := m.ctrl.Run(&channelSource{m: m, ch: ch, recs: recs})
		if err != nil {
			return nil, fmt.Errorf("memctrl: channel %d: %w", ch, err)
		}
		if merged == nil {
			merged = run
			continue
		}
		mergeRuns(merged, run)
	}
	merged.Arch = fmt.Sprintf("%s ×%d channels", merged.Arch, m.channels)
	return merged, nil
}

// channelSource yields channel ch's sub-trace of recs, in order and with
// channel-local addresses, without copying it out.
type channelSource struct {
	m    *MultiChannel
	ch   int
	recs []trace.Record
}

// Next implements trace.Source.
func (s *channelSource) Next() (trace.Record, bool) {
	for len(s.recs) > 0 {
		rec := s.recs[0]
		s.recs = s.recs[1:]
		if ch, local := s.m.channelOf(rec.Addr); ch == s.ch {
			rec.Addr = local
			return rec, true
		}
	}
	return trace.Record{}, false
}

// Err implements trace.Source; the records are already in memory.
func (*channelSource) Err() error { return nil }

// mergeRuns folds b's measurements into a.
func mergeRuns(a, b *stats.Run) {
	a.ReadLatency.Merge(&b.ReadLatency)
	a.WriteLatency.Merge(&b.WriteLatency)
	for i := range a.Classes {
		a.Classes[i] += b.Classes[i]
	}
	a.Refreshes += b.Refreshes
	a.RefreshAborts += b.RefreshAborts
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.VictimWrites += b.VictimWrites
	a.WriteCancels += b.WriteCancels
	a.Events += b.Events
	if b.SimulatedNs > a.SimulatedNs {
		a.SimulatedNs = b.SimulatedNs
	}
}
