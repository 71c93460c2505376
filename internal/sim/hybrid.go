package sim

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
)

// HybridAblation quantifies the §4 "practical cached memory solution"
// argument: WCPCM versus a hybrid DRAM/PCM cache ([18] PDRAM). The DRAM
// cache is faster — no SET pulses, no WOM budget, no PCM-refresh — but
// needs mixed-technology fabrication and inherits DRAM's scaling limits;
// the experiment measures how much of its latency benefit the pure-PCM
// WOM-cache retains.
type HybridAblationResult struct {
	// Mean normalized latencies versus conventional PCM.
	WCPCMWrite, HybridWrite float64
	WCPCMRead, HybridRead   float64
	// Retention is the share of the hybrid's write-latency reduction that
	// WCPCM achieves: (1−WCPCMWrite)/(1−HybridWrite).
	Retention float64
}

// HybridAblation runs both cached architectures over the workloads.
func HybridAblation(cfg ExpConfig) (*HybridAblationResult, error) {
	return runOne[*HybridAblationResult](cfg, hybridPlan)
}

func hybridPlan(cfg ExpConfig, _ Params) (plan, error) {
	wcpcm, err := cfg.archConfig(core.WCPCM, cfg.Geometry)
	if err != nil {
		return plan{}, err
	}
	hybrid := cfg.baseline()
	hybrid.Cache = &memctrl.CacheConfig{Technology: memctrl.DRAMCache}
	return plan{grid(cfg.Profiles, cfg.baseline(), wcpcm, hybrid), func(runs []*stats.Run) (any, string, error) {
		res := &HybridAblationResult{}
		n := float64(len(cfg.Profiles))
		for p := range cfg.Profiles {
			base, wcpcm, hybrid := runs[3*p], runs[3*p+1], runs[3*p+2]
			ww, wr := wcpcm.Normalized(base)
			hw, hr := hybrid.Normalized(base)
			res.WCPCMWrite += ww / n
			res.WCPCMRead += wr / n
			res.HybridWrite += hw / n
			res.HybridRead += hr / n
		}
		if res.HybridWrite < 1 {
			res.Retention = (1 - res.WCPCMWrite) / (1 - res.HybridWrite)
		}
		return res, RenderHybridAblation(res), nil
	}}, nil
}

// RenderHybridAblation formats the comparison.
func RenderHybridAblation(res *HybridAblationResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: WCPCM vs hybrid DRAM/PCM cache (§4, [18])")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "architecture\tnorm. write\tnorm. read\tfabrication")
	fmt.Fprintf(tw, "WCPCM (WOM-cache)\t%.3f\t%.3f\tpure PCM\n", res.WCPCMWrite, res.WCPCMRead)
	fmt.Fprintf(tw, "hybrid DRAM/PCM\t%.3f\t%.3f\tmixed DRAM+PCM\n", res.HybridWrite, res.HybridRead)
	tw.Flush()
	fmt.Fprintf(&b, "WCPCM retains %.0f%% of the hybrid's write-latency benefit with PCM-only fabrication.\n",
		100*res.Retention)
	return b.String()
}
