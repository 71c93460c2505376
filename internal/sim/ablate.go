package sim

import (
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
)

// RthSweepResult measures the PCM-refresh threshold r_th (§3.2): low
// thresholds refresh aggressively, higher thresholds wait for enough
// at-limit banks to batch the burst-mode refresh.
type RthSweepResult struct {
	Thresholds []float64
	// NormWrite is the across-benchmark mean normalized write latency of
	// PCM-refresh at each threshold (versus conventional PCM).
	NormWrite []float64
	// Refreshes and Aborts are totals across benchmarks.
	Refreshes []uint64
	Aborts    []uint64
}

// RthSweep runs PCM-refresh at each threshold.
func RthSweep(cfg ExpConfig, thresholds []float64) (*RthSweepResult, error) {
	return runOne[*RthSweepResult](cfg, func(cfg ExpConfig, _ Params) (plan, error) { return rthPlan(cfg, thresholds), nil })
}

func rthPlan(cfg ExpConfig, thresholds []float64) plan {
	cfgs := []memctrl.Config{cfg.baseline()}
	for _, th := range thresholds {
		mc := cfg.baseline()
		mc.WOM = memctrl.DefaultWOM()
		mc.Refresh = &memctrl.RefreshConfig{ThresholdPct: th, TableSize: 5}
		cfgs = append(cfgs, mc)
	}
	return plan{grid(cfg.Profiles, cfgs...), func(runs []*stats.Run) (any, string, error) {
		res := &RthSweepResult{
			Thresholds: append([]float64(nil), thresholds...),
			NormWrite:  make([]float64, len(thresholds)),
			Refreshes:  make([]uint64, len(thresholds)),
			Aborts:     make([]uint64, len(thresholds)),
		}
		for p := range cfg.Profiles {
			runs := runs[p*len(cfgs) : (p+1)*len(cfgs)]
			for t, run := range runs[1:] {
				w, _ := run.Normalized(runs[0])
				res.NormWrite[t] += w / float64(len(cfg.Profiles))
				res.Refreshes[t] += run.Refreshes
				res.Aborts[t] += run.RefreshAborts
			}
		}
		return res, RenderRthSweep(res), nil
	}}
}

// OrgAblationResult compares the §3.1 memory organizations.
type OrgAblationResult struct {
	// WideWrite/HiddenWrite (and reads) are across-benchmark mean
	// normalized latencies versus conventional PCM.
	WideWrite, HiddenWrite float64
	WideRead, HiddenRead   float64
}

// OrgAblation runs WOM-code PCM in both organizations.
func OrgAblation(cfg ExpConfig) (*OrgAblationResult, error) {
	return runOne[*OrgAblationResult](cfg, orgPlan)
}

func orgPlan(cfg ExpConfig, _ Params) (plan, error) {
	wide, hidden := cfg.baseline(), cfg.baseline()
	wide.WOM = &memctrl.WOMConfig{Rewrites: 2, Org: memctrl.WideColumn}
	hidden.WOM = &memctrl.WOMConfig{Rewrites: 2, Org: memctrl.HiddenPage}
	return plan{grid(cfg.Profiles, cfg.baseline(), wide, hidden), func(runs []*stats.Run) (any, string, error) {
		res := &OrgAblationResult{}
		n := float64(len(cfg.Profiles))
		for p := range cfg.Profiles {
			base, wide, hidden := runs[3*p], runs[3*p+1], runs[3*p+2]
			ww, wr := wide.Normalized(base)
			hw, hr := hidden.Normalized(base)
			res.WideWrite += ww / n
			res.WideRead += wr / n
			res.HiddenWrite += hw / n
			res.HiddenRead += hr / n
		}
		return res, RenderOrgAblation(res), nil
	}}, nil
}

// PausingAblationResult compares PCM-refresh with and without write
// pausing (§3.2 combines them; this quantifies the combination).
type PausingAblationResult struct {
	// WithWrite/WithoutWrite are mean normalized write latencies; Aborts
	// counts preemptions in the with-pausing runs.
	WithWrite, WithoutWrite float64
	WithRead, WithoutRead   float64
	Aborts                  uint64
}

// PausingAblation runs PCM-refresh with pausing on and off.
func PausingAblation(cfg ExpConfig) (*PausingAblationResult, error) {
	return runOne[*PausingAblationResult](cfg, pausingPlan)
}

func pausingPlan(cfg ExpConfig, _ Params) (plan, error) {
	with, without := cfg.baseline(), cfg.baseline()
	with.WOM, without.WOM = memctrl.DefaultWOM(), memctrl.DefaultWOM()
	with.Refresh = &memctrl.RefreshConfig{ThresholdPct: 10, TableSize: 5}
	without.Refresh = &memctrl.RefreshConfig{ThresholdPct: 10, TableSize: 5, NoPausing: true}
	return plan{grid(cfg.Profiles, cfg.baseline(), with, without), func(runs []*stats.Run) (any, string, error) {
		res := &PausingAblationResult{}
		n := float64(len(cfg.Profiles))
		for p := range cfg.Profiles {
			base, with, without := runs[3*p], runs[3*p+1], runs[3*p+2]
			ww, wr := with.Normalized(base)
			ow, or := without.Normalized(base)
			res.WithWrite += ww / n
			res.WithRead += wr / n
			res.WithoutWrite += ow / n
			res.WithoutRead += or / n
			res.Aborts += with.RefreshAborts
		}
		return res, RenderPausingAblation(res), nil
	}}, nil
}

// CodeAblationResult sweeps the rewrite budget k (§3.2: higher k lifts the
// (k−1+S)/(kS) bound at higher memory overhead).
type CodeAblationResult struct {
	Rewrites []int
	// NormWrite is the mean normalized write latency of WOM-code PCM (no
	// refresh) at each k; Bound is the corresponding analytic limit.
	NormWrite []float64
	Bound     []float64
}

// CodeAblation runs WOM-code PCM at each rewrite budget.
func CodeAblation(cfg ExpConfig, rewrites []int) (*CodeAblationResult, error) {
	return runOne[*CodeAblationResult](cfg, func(cfg ExpConfig, _ Params) (plan, error) { return codePlan(cfg, rewrites), nil })
}

// codeBound is §3.2's analytic limit (k−1+S)/(kS) on WOM-code PCM's write
// latency normalized to conventional PCM, with S = SET/RESET latency.
func codeBound(k int, t pcm.Timing) float64 {
	s := float64(t.Set) / float64(t.Reset)
	return (float64(k) - 1 + s) / (float64(k) * s)
}

func codePlan(cfg ExpConfig, rewrites []int) plan {
	cfgs := []memctrl.Config{cfg.baseline()}
	for _, k := range rewrites {
		mc := cfg.baseline()
		mc.WOM = &memctrl.WOMConfig{Rewrites: k}
		cfgs = append(cfgs, mc)
	}
	return plan{grid(cfg.Profiles, cfgs...), func(runs []*stats.Run) (any, string, error) {
		res := &CodeAblationResult{
			Rewrites:  append([]int(nil), rewrites...),
			NormWrite: make([]float64, len(rewrites)),
			Bound:     make([]float64, len(rewrites)),
		}
		for i, k := range rewrites {
			res.Bound[i] = codeBound(k, cfg.Timing)
		}
		for p := range cfg.Profiles {
			runs := runs[p*len(cfgs) : (p+1)*len(cfgs)]
			for k, run := range runs[1:] {
				w, _ := run.Normalized(runs[0])
				res.NormWrite[k] += w / float64(len(cfg.Profiles))
			}
		}
		return res, RenderCodeAblation(res), nil
	}}
}
