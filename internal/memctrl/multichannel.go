package memctrl

import (
	"fmt"

	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// MultiChannel simulates an n-channel memory system: n independent
// controllers (each with the full per-channel geometry) with consecutive
// cache lines striped across channels. The paper evaluates a single
// channel (§5); multi-channel is the §1 "exascale capacity" scaling axis —
// channels multiply both capacity and bandwidth, and because each channel
// has its own WOM state and refresh engine, the architectures compose
// unchanged.
//
// Address mapping: the line-interleave bits directly above the 64-byte
// line offset select the channel, so streams fan out across channels.
type MultiChannel struct {
	controllers []*Controller
	channels    int
}

// lineShift is the log2 of the striping granularity (one 64-byte line).
const lineShift = 6

// NewMultiChannel builds an n-channel system; each channel gets cfg's full
// geometry. n must be a power of two.
func NewMultiChannel(cfg Config, n int) (*MultiChannel, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("memctrl: channel count must be a positive power of two, got %d", n)
	}
	mc := &MultiChannel{channels: n}
	for i := 0; i < n; i++ {
		ctrl, err := New(cfg)
		if err != nil {
			return nil, err
		}
		mc.controllers = append(mc.controllers, ctrl)
	}
	return mc, nil
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
// fully independent, so each is run to completion on its own sub-trace;
// statistics are merged (latency distributions, class and event counters).
func (m *MultiChannel) Run(src trace.Source) (*stats.Run, error) {
	subs := make([][]trace.Record, m.channels)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		ch, local := m.channelOf(rec.Addr)
		rec.Addr = local
		subs[ch] = append(subs[ch], rec)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	var merged *stats.Run
	for ch, ctrl := range m.controllers {
		run, err := ctrl.Run(trace.NewSliceSource(subs[ch]))
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
