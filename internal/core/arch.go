// Package core is the paper-facing API of the reproduction: the four PCM
// architectures Li and Mohanram evaluate (DATE 2014), each available as a
// timing System (driven by access traces, §5's methodology) and as a
// FunctionalMemory (a data-carrying model that stores real bits through the
// WOM codec and enforces the RESET-only programming discipline).
//
//	Baseline    conventional PCM: every write pays the SET latency
//	WOMCode     §3.1: inverted <2^2>^2/3 WOM-code rows, wide-column
//	Refresh     §3.2: WOM-code plus idle-cycle PCM-refresh
//	WCPCM       §4:   per-rank WOM-cache over conventional PCM
package core

import (
	"fmt"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// Arch identifies one of the paper's four evaluated architectures.
type Arch int

const (
	// Baseline is conventional PCM without WOM-codes.
	Baseline Arch = iota
	// WOMCode is the §3.1 WOM-code PCM architecture.
	WOMCode
	// Refresh is WOM-code PCM with §3.2 PCM-refresh.
	Refresh
	// WCPCM is the §4 WOM-code cached PCM architecture.
	WCPCM
)

// Arches lists the four architectures in the paper's plotting order
// (Fig. 5: blue, red, green, purple).
func Arches() []Arch { return []Arch{Baseline, WOMCode, Refresh, WCPCM} }

// String names the architecture as the paper's figures do.
func (a Arch) String() string {
	switch a {
	case Baseline:
		return "PCM w/o WOM-code"
	case WOMCode:
		return "WOM-code PCM"
	case Refresh:
		return "PCM-refresh"
	case WCPCM:
		return "WCPCM"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Options tune a System away from the paper's defaults.
type Options struct {
	// Geometry defaults to pcm.DefaultGeometry (§5).
	Geometry pcm.Geometry
	// Timing defaults to pcm.DefaultTiming (§5).
	Timing pcm.Timing
	// Organization selects wide-column (default) or hidden-page for the
	// WOMCode and Refresh architectures.
	Organization memctrl.Organization
	// Rewrites is the WOM-code budget k; 0 selects the paper's 2.
	Rewrites int
	// RefreshThresholdPct is r_th; negative selects the default (10).
	RefreshThresholdPct float64
	// RefreshTableSize is the per-bank row address table depth; 0 selects
	// the paper's 5.
	RefreshTableSize int
	// FreshArrays treats never-written main-array rows as factory-erased.
	// The default (false) models a long-running system where a row of
	// unknown state must be assumed to be at the rewrite limit.
	FreshArrays bool
}

// DefaultOptions returns the paper's §5 configuration.
func DefaultOptions() Options {
	return Options{
		Geometry:            pcm.DefaultGeometry(),
		Timing:              pcm.DefaultTiming(),
		Rewrites:            2,
		RefreshThresholdPct: 10,
		RefreshTableSize:    5,
	}
}

// normalize fills zero values with paper defaults.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.Geometry == (pcm.Geometry{}) {
		o.Geometry = def.Geometry
	}
	if o.Timing == (pcm.Timing{}) {
		o.Timing = def.Timing
	}
	if o.Rewrites == 0 {
		o.Rewrites = def.Rewrites
	}
	if o.RefreshThresholdPct < 0 {
		o.RefreshThresholdPct = def.RefreshThresholdPct
	}
	if o.RefreshTableSize == 0 {
		o.RefreshTableSize = def.RefreshTableSize
	}
	return o
}

// System is a simulated memory system of one architecture; Simulate runs a
// trace through a fresh controller each call, so a System is reusable and
// safe for repeated experiments.
type System struct {
	arch Arch
	cfg  memctrl.Config
}

// NewSystem builds a System. Zero fields of opts take the paper's defaults;
// pass DefaultOptions() for the exact §5 setup.
func NewSystem(arch Arch, opts Options) (*System, error) {
	opts = opts.normalize()
	cfg := memctrl.Config{Geometry: opts.Geometry, Timing: opts.Timing}
	switch arch {
	case Baseline:
	case WOMCode:
		cfg.WOM = &memctrl.WOMConfig{Rewrites: opts.Rewrites, Org: opts.Organization, FreshArrays: opts.FreshArrays}
	case Refresh:
		cfg.WOM = &memctrl.WOMConfig{Rewrites: opts.Rewrites, Org: opts.Organization, FreshArrays: opts.FreshArrays}
		cfg.Refresh = &memctrl.RefreshConfig{
			ThresholdPct: opts.RefreshThresholdPct,
			TableSize:    opts.RefreshTableSize,
		}
	case WCPCM:
		cfg.Cache = &memctrl.CacheConfig{
			Rewrites:  opts.Rewrites,
			TableSize: opts.RefreshTableSize,
		}
	default:
		return nil, fmt.Errorf("core: unknown architecture %d", int(arch))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{arch: arch, cfg: cfg}, nil
}

// Arch returns the system's architecture.
func (s *System) Arch() Arch { return s.arch }

// Config exposes the underlying controller configuration. Callers that
// instrument a run set its Probe or Events and pass it to memctrl.New.
func (s *System) Config() memctrl.Config { return s.cfg }

// MemoryOverhead returns the architecture's extra-cell overhead relative to
// conventional PCM with a code overhead of (Wits/DataBits − 1): 0.5 for the
// paper's code. WOM-code PCM pays it across the whole array; WCPCM pays
// (1+0.5)/N_bank (§4's 4.7 % at 32 banks); baseline pays nothing.
func (s *System) MemoryOverhead(codeOverhead float64) float64 {
	switch s.arch {
	case WOMCode, Refresh:
		return codeOverhead
	case WCPCM:
		return s.cfg.Geometry.WOMCacheOverhead(codeOverhead)
	default:
		return 0
	}
}

// Simulate runs src through a fresh controller and labels the result.
func (s *System) Simulate(src trace.Source) (*stats.Run, error) {
	ctrl, err := memctrl.New(s.cfg)
	if err != nil {
		return nil, err
	}
	return ctrl.Run(src)
}

// SimulateRecords is Simulate over an in-memory trace.
func (s *System) SimulateRecords(recs []trace.Record) (*stats.Run, error) {
	return s.Simulate(trace.NewSliceSource(recs))
}
