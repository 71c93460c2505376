package sim

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
)

// SchedulingAblation compares the paper's §1 design space head-on: write
// scheduling ([7]: read priority, write cancellation) against WOM-coding,
// and their combination. The paper argues scheduling "is not suitable for
// high-performance computing where there are little-to-no idle cycles" and
// does not attack the write itself; this experiment quantifies that.
type SchedulingAblationResult struct {
	// Variants names each configuration; Write and Read are the
	// across-benchmark mean normalized latencies versus plain FCFS
	// conventional PCM.
	Variants []string
	Write    []float64
	Read     []float64
	// Cancels totals write cancellations across benchmarks per variant.
	Cancels []uint64
}

// SchedulingAblation runs the five variants over the configured workloads.
func SchedulingAblation(cfg ExpConfig) (*SchedulingAblationResult, error) {
	return runOne[*SchedulingAblationResult](cfg, schedPlan)
}

func schedPlan(cfg ExpConfig, _ Params) (plan, error) {
	sched := &memctrl.SchedConfig{ReadPriority: true, WriteCancellation: true}
	variants := []struct {
		name string
		mc   memctrl.Config
	}{
		{"read priority", memctrl.Config{Geometry: cfg.Geometry, Timing: cfg.Timing,
			Sched: &memctrl.SchedConfig{ReadPriority: true}}},
		{"rd-prio + cancellation", memctrl.Config{Geometry: cfg.Geometry, Timing: cfg.Timing,
			Sched: sched}},
		{"WOM-code PCM", memctrl.Config{Geometry: cfg.Geometry, Timing: cfg.Timing,
			WOM: memctrl.DefaultWOM()}},
		{"WOM + scheduling", memctrl.Config{Geometry: cfg.Geometry, Timing: cfg.Timing,
			WOM: memctrl.DefaultWOM(), Sched: sched}},
		{"PCM-refresh + scheduling", memctrl.Config{Geometry: cfg.Geometry, Timing: cfg.Timing,
			WOM: memctrl.DefaultWOM(), Refresh: memctrl.DefaultRefresh(), Sched: sched}},
	}
	cfgs := []memctrl.Config{cfg.baseline()}
	for _, v := range variants {
		cfgs = append(cfgs, v.mc)
	}
	return plan{grid(cfg.Profiles, cfgs...), func(runs []*stats.Run) (any, string, error) {
		res := &SchedulingAblationResult{
			Variants: make([]string, len(variants)),
			Write:    make([]float64, len(variants)),
			Read:     make([]float64, len(variants)),
			Cancels:  make([]uint64, len(variants)),
		}
		for i, v := range variants {
			res.Variants[i] = v.name
		}
		n := float64(len(cfg.Profiles))
		for p := range cfg.Profiles {
			runs := runs[p*len(cfgs) : (p+1)*len(cfgs)]
			for v, run := range runs[1:] {
				w, r := run.Normalized(runs[0])
				res.Write[v] += w / n
				res.Read[v] += r / n
				res.Cancels[v] += run.WriteCancels
			}
		}
		return res, RenderSchedulingAblation(res), nil
	}}, nil
}

// RenderSchedulingAblation formats the comparison.
func RenderSchedulingAblation(res *SchedulingAblationResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: write scheduling ([7]) vs WOM-coding (normalized to FCFS baseline)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tnorm. write\tnorm. read\tcancellations")
	for i, v := range res.Variants {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%d\n", v, res.Write[i], res.Read[i], res.Cancels[i])
	}
	tw.Flush()
	fmt.Fprintln(&b, "paper's §1 claim: scheduling helps reads but cannot shorten the writes themselves.")
	return b.String()
}
