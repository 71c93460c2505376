package sim

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// ChannelScalingResult measures the §1 scaling axis the paper leaves on the
// table: striping the same traffic across more independent channels. Each
// channel carries its own WOM state and refresh engine, so the PCM-refresh
// architecture scales without coordination.
type ChannelScalingResult struct {
	Channels []int
	// NormWrite and NormRead are mean latencies of the PCM-refresh
	// architecture at each channel count, normalized to 1 channel.
	NormWrite []float64
	NormRead  []float64
}

// ChannelScaling runs PCM-refresh at each channel count over the workloads.
func ChannelScaling(cfg ExpConfig, channels []int) (*ChannelScalingResult, error) {
	cfg = cfg.normalize()
	res := &ChannelScalingResult{
		Channels:  append([]int(nil), channels...),
		NormWrite: make([]float64, len(channels)),
		NormRead:  make([]float64, len(channels)),
	}
	mcCfg := memctrl.Config{
		Geometry: cfg.Geometry,
		Timing:   cfg.Timing,
		WOM:      memctrl.DefaultWOM(),
		Refresh:  memctrl.DefaultRefresh(),
	}
	type job struct{ prof, ch int }
	var jobs []job
	for p := range cfg.Profiles {
		for c := range channels {
			jobs = append(jobs, job{p, c})
		}
	}
	runs := make([][]*stats.Run, len(cfg.Profiles))
	for p := range runs {
		runs[p] = make([]*stats.Run, len(channels))
	}
	if err := cfg.parMap(len(jobs), func(i int) error {
		j := jobs[i]
		// The channels of one MultiChannel run one after another, so they
		// can share one probe.
		chCfg := mcCfg
		report := instrument(cfg.Ctx, &chCfg, "")
		mc, err := memctrl.NewMultiChannel(chCfg, channels[j.ch])
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(cfg.Profiles[j.prof], cfg.Geometry, cfg.Seed)
		if err != nil {
			return err
		}
		run, err := mc.Run(trace.NewLimit(gen, cfg.Requests))
		if err != nil {
			return fmt.Errorf("sim: %d channels on %s: %w", channels[j.ch], cfg.Profiles[j.prof].Name, err)
		}
		report(run)
		runs[j.prof][j.ch] = run
		return nil
	}); err != nil {
		return nil, err
	}
	n := float64(len(cfg.Profiles))
	for p := range cfg.Profiles {
		base := runs[p][0]
		for c := range channels {
			w, r := runs[p][c].Normalized(base)
			res.NormWrite[c] += w / n
			res.NormRead[c] += r / n
		}
	}
	return res, nil
}

// RenderChannelScaling formats the sweep.
func RenderChannelScaling(res *ChannelScalingResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension: channel scaling (PCM-refresh, normalized to 1 channel)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "channels\tnorm. write\tnorm. read")
	for i, ch := range res.Channels {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", ch, res.NormWrite[i], res.NormRead[i])
	}
	tw.Flush()
	fmt.Fprintln(&b, "independent per-channel WOM state and refresh engines: no coordination needed.")
	return b.String()
}
