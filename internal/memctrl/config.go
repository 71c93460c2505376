// Package memctrl implements the event-driven PCM memory-system simulator
// that stands in for the paper's modified DRAMSim2 (§5). It models a single
// channel of ranks and banks with per-bank FIFO queues, the paper's PCM
// service latencies, WOM-code row rewrite state, the PCM-refresh engine
// (§3.2) with write pausing, and the WCPCM per-rank WOM-cache front end
// (§4).
//
// One Controller type covers all four evaluated architectures; the options
// in Config select the behavior:
//
//	baseline PCM:     Config{WOM: nil, Refresh: nil, Cache: nil}
//	WOM-code PCM:     Config{WOM: &WOMConfig{...}}
//	PCM-refresh:      Config{WOM: ..., Refresh: &RefreshConfig{...}}
//	WCPCM:            Config{Cache: &CacheConfig{...}} (conventional main)
//
// Time is int64 nanoseconds throughout.
//
// A Controller's state is plain data: its banks are one slice, per-row WOM
// state and cache selectors live in paged row tables, and in-flight
// Requests live in a slab and link to each other by index. Code holds a
// request by its slab index; a *Request into the slab is valid only until
// the next request is admitted, which may move the slab (see Request).
package memctrl

import (
	"fmt"
	"sync/atomic"

	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
)

// Clock is a simulation timestamp or duration in nanoseconds.
type Clock = int64

// Organization selects how the extra WOM-code bits are provisioned (§3.1).
type Organization int

const (
	// WideColumn widens every column from Z to Wits/DataBits·Z bits; the
	// encoded row is accessed in one array operation. Fixed code, fastest.
	WideColumn Organization = iota
	// HiddenPage stores the upper encoded bits in controller-reserved
	// hidden pages; flexible code choice at a small per-access transfer
	// overhead (modeled as one extra burst on the bank).
	HiddenPage
)

// String names the organization.
func (o Organization) String() string {
	switch o {
	case WideColumn:
		return "wide-column"
	case HiddenPage:
		return "hidden-page"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// WOMConfig enables WOM-code writes on the main PCM arrays.
type WOMConfig struct {
	// Rewrites is k, the code's guaranteed writes per erased row (2 for the
	// paper's <2^2>^2/3 code).
	Rewrites int
	// Org selects the memory organization provisioning the code overhead.
	Org Organization
	// FreshArrays treats never-written rows as factory-erased (all wits
	// set), so their first k writes are fast. The default (false) is the
	// long-running-system assumption: a row of unknown state must be
	// treated as at the rewrite limit, so its first observed write is an
	// α-write. WCPCM cache arrays are always fresh — they are new,
	// pre-conditioned hardware that PCM-refresh keeps restoring.
	FreshArrays bool
}

// DefaultWOM returns the paper's configuration: the <2^2>^2/3 code in the
// wide-column organization.
func DefaultWOM() *WOMConfig { return &WOMConfig{Rewrites: 2, Org: WideColumn} }

// RefreshConfig enables PCM-refresh (§3.2). Requires WOM.
type RefreshConfig struct {
	// ThresholdPct is r_th: an idle rank is refreshed only if at least
	// ⌊ThresholdPct·BanksPerRank/100⌋ of its banks, and never fewer than
	// one, have a row at the rewrite limit in their table. At 50 on 32
	// banks, 16 candidate banks qualify. 0 refreshes any idle rank with
	// one candidate.
	ThresholdPct float64
	// TableSize is the per-bank row address table depth; the paper uses 5
	// ("the most recent 5 pages that have reached the rewrite limit").
	TableSize int
	// NoPausing disables write pausing (ablation): demand accesses wait
	// out an ongoing refresh instead of preempting it.
	NoPausing bool
	// MaxRanksPerTick bounds how many idle ranks one scheduling point may
	// refresh; 0 (the default) refreshes every eligible idle rank — rank
	// refreshes are independent array operations, so nothing serializes
	// them. 1 models a strict one-command-per-period controller.
	MaxRanksPerTick int
}

// CandidateBanks converts ThresholdPct into the r_th threshold the refresh
// engine applies on ranks of banksPerRank banks: the minimum number of
// banks with a candidate row, ⌊ThresholdPct·banksPerRank/100⌋ and at least
// one. Thresholds with the same count behave identically; on 32 banks, 0%
// and 5% both need one bank.
func (r *RefreshConfig) CandidateBanks(banksPerRank int) int {
	return max(int(r.ThresholdPct*float64(banksPerRank)/100), 1)
}

// DefaultRefresh returns the default configuration: the paper's 5-entry
// row address table and an eager threshold (the paper introduces r_th but
// does not fix its value; the RthSweep ablation explores it).
func DefaultRefresh() *RefreshConfig { return &RefreshConfig{ThresholdPct: 0, TableSize: 5} }

// CacheTechnology selects what the per-rank cache array is built from.
type CacheTechnology int

const (
	// WOMCache is the paper's §4 design: a wide-column WOM-code PCM array
	// with PCM-refresh. Pure-PCM fabrication, 1.5/N_bank overhead.
	WOMCache CacheTechnology = iota
	// DRAMCache models the hybrid DRAM/PCM alternative the paper compares
	// against (§4, [18] PDRAM): a DRAM array in front of PCM. Writes and
	// reads complete at DRAM row speeds (no SET, no WOM budget, no
	// PCM-refresh), but the design needs mixed-technology fabrication and
	// inherits DRAM's scaling limits — the §4 practicality argument.
	DRAMCache
)

// String names the technology.
func (t CacheTechnology) String() string {
	switch t {
	case WOMCache:
		return "WOM-cache"
	case DRAMCache:
		return "DRAM-cache"
	default:
		return fmt.Sprintf("CacheTechnology(%d)", int(t))
	}
}

// CacheConfig enables the WCPCM per-rank cache (§4). With the default
// WOMCache technology the array is a wide-column WOM-code array with
// PCM-refresh; the main memory behind it is conventional PCM.
type CacheConfig struct {
	// Rewrites is the cache array's WOM rewrite budget (2 for the paper).
	// Ignored by DRAMCache.
	Rewrites int
	// TableSize is the cache array's refresh row table depth. Ignored by
	// DRAMCache.
	TableSize int
	// Technology selects the cache array implementation.
	Technology CacheTechnology
}

// DefaultCache returns the paper's configuration.
func DefaultCache() *CacheConfig { return &CacheConfig{Rewrites: 2, TableSize: 5} }

// SchedConfig enables the write-scheduling policies of Qureshi et al.
// (HPCA 2010), the paper's [7] — the alternative approach to the PCM write
// problem that §1 argues is insufficient on its own. Useful as an ablation
// comparator against WOM-codes.
type SchedConfig struct {
	// ReadPriority serves queued reads before queued writes at each bank.
	ReadPriority bool
	// WriteCancellation lets an arriving read cancel the write currently
	// in service at its bank; the write restarts later (at most
	// MaxCancels times, then it runs to completion). Requires
	// ReadPriority.
	WriteCancellation bool
	// MaxCancels bounds how often one write may be cancelled (default 4).
	MaxCancels int
}

// Config assembles a simulated memory system.
type Config struct {
	// Geometry and Timing describe the device (§5 defaults via
	// pcm.DefaultGeometry and pcm.DefaultTiming).
	Geometry pcm.Geometry
	Timing   pcm.Timing
	// WOM, Refresh and Cache select the architecture; see the package
	// comment. Refresh requires WOM; Cache excludes both (the WOM behavior
	// lives inside the cache array).
	WOM     *WOMConfig
	Refresh *RefreshConfig
	Cache   *CacheConfig
	// Sched optionally enables read-priority scheduling and write
	// cancellation ([7]); nil keeps plain per-bank FCFS.
	Sched *SchedConfig
	// PausePenalty is the bank re-arbitration delay a demand access pays
	// when it preempts an ongoing PCM-refresh (write pausing, §3.2).
	// Defaults to one burst.
	PausePenalty Clock
	// Probe, when set, receives fine-grained simulator events: write
	// classification, refresh lifecycle, WOM-cache actions, bank busy
	// intervals, and demand request completions (see internal/probe). nil
	// — the default — reduces every instrumentation site to one pointer
	// check, so uninstrumented runs pay nothing (benchmark-verified; see
	// BenchmarkRunNilProbe). The probe and its sinks are used from the
	// controller's goroutine only.
	Probe *probe.Probe
	// Events, when set, receives a live count of discrete-event steps the
	// controller executes: the shared counter is advanced in strides of
	// eventFlushStride (plus a final flush), so a long simulation's host-time
	// throughput (simulated-events/sec) is observable while it runs —
	// internal/perfmon's rolling rate and the engine's slow-job detector read
	// it. Several parallel simulations may share one counter (Add is atomic).
	// nil — the default — costs one pointer check per flush decision and
	// allocates nothing (see TestEventCountDisabledAllocs and
	// BenchmarkRunEventCounter).
	Events *atomic.Int64
}

// DefaultConfig returns the baseline system with the paper's geometry and
// timing.
func DefaultConfig() Config {
	return Config{Geometry: pcm.DefaultGeometry(), Timing: pcm.DefaultTiming()}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.Refresh != nil && c.WOM == nil {
		return fmt.Errorf("memctrl: PCM-refresh requires WOM-code writes")
	}
	if c.Cache != nil && (c.WOM != nil || c.Refresh != nil) {
		return fmt.Errorf("memctrl: WCPCM uses a conventional PCM main memory; configure WOM inside CacheConfig")
	}
	if c.WOM != nil && c.WOM.Rewrites < 1 {
		return fmt.Errorf("memctrl: WOM rewrite budget %d < 1", c.WOM.Rewrites)
	}
	if c.Refresh != nil {
		if c.Refresh.TableSize < 1 {
			return fmt.Errorf("memctrl: refresh table size %d < 1", c.Refresh.TableSize)
		}
		if c.Refresh.ThresholdPct < 0 || c.Refresh.ThresholdPct > 100 {
			return fmt.Errorf("memctrl: refresh threshold %v%% outside [0,100]", c.Refresh.ThresholdPct)
		}
	}
	if c.Cache != nil && c.Cache.Technology == WOMCache {
		if c.Cache.Rewrites < 1 {
			return fmt.Errorf("memctrl: cache rewrite budget %d < 1", c.Cache.Rewrites)
		}
		if c.Cache.TableSize < 1 {
			return fmt.Errorf("memctrl: cache table size %d < 1", c.Cache.TableSize)
		}
	}
	if c.PausePenalty < 0 {
		return fmt.Errorf("memctrl: negative pause penalty")
	}
	if c.Sched != nil {
		if c.Sched.WriteCancellation && !c.Sched.ReadPriority {
			return fmt.Errorf("memctrl: write cancellation requires read priority")
		}
		if c.Sched.MaxCancels < 0 {
			return fmt.Errorf("memctrl: negative cancellation bound")
		}
	}
	return nil
}

// Servers counts the serially serviced resources the controller models:
// every bank, plus one cache array per rank when Cache is set. Telemetry
// normalizes bank utilization by it.
func (c Config) Servers() int {
	n := c.Geometry.Ranks * c.Geometry.BanksPerRank
	if c.Cache != nil {
		n += c.Geometry.Ranks
	}
	return n
}

// ArchName derives the paper's name for the configured architecture.
func (c Config) ArchName() string {
	switch {
	case c.Cache != nil && c.Cache.Technology == DRAMCache:
		return "hybrid DRAM/PCM"
	case c.Cache != nil:
		return "WCPCM"
	case c.Refresh != nil:
		return "PCM-refresh"
	case c.WOM != nil:
		if c.WOM.Org == HiddenPage {
			return "WOM-code PCM (hidden-page)"
		}
		return "WOM-code PCM"
	default:
		return "PCM w/o WOM-code"
	}
}
