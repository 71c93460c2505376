package sim

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
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
	return runOne[*ChannelScalingResult](cfg, func(cfg ExpConfig, _ Params) (plan, error) { return channelsPlan(cfg, channels) })
}

func channelsPlan(cfg ExpConfig, channels []int) (plan, error) {
	mc := cfg.baseline()
	mc.WOM = memctrl.DefaultWOM()
	mc.Refresh = memctrl.DefaultRefresh()
	var cells []cell
	for _, p := range cfg.Profiles {
		for _, ch := range channels {
			if ch < 1 { // a cell's channel count 0 means a plain controller
				return plan{}, fmt.Errorf("sim: channel count %d < 1", ch)
			}
			c := cell{cfg: mc, channels: ch, prof: p}
			if ch == 1 {
				// One channel stripes nothing: it is the plain controller,
				// whose cell other experiments already run.
				c.channels = 0
			}
			cells = append(cells, c)
		}
	}
	return plan{cells, func(runs []*stats.Run) (any, string, error) {
		res := &ChannelScalingResult{
			Channels:  append([]int(nil), channels...),
			NormWrite: make([]float64, len(channels)),
			NormRead:  make([]float64, len(channels)),
		}
		n := float64(len(cfg.Profiles))
		for p := range cfg.Profiles {
			runs := runs[p*len(channels) : (p+1)*len(channels)]
			for c, run := range runs {
				w, r := run.Normalized(runs[0])
				res.NormWrite[c] += w / n
				res.NormRead[c] += r / n
			}
		}
		return res, RenderChannelScaling(res), nil
	}}, nil
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
