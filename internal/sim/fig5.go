package sim

import (
	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
	"womcpcm/internal/workload"
)

// Fig5Row is one benchmark's bar group in Fig. 5: write and read latency of
// each architecture normalized to conventional PCM.
type Fig5Row struct {
	Benchmark string
	Suite     workload.Suite
	// Write and Read are normalized mean latencies indexed like
	// core.Arches(): baseline (always 1.0), WOM-code, PCM-refresh, WCPCM.
	Write [4]float64
	Read  [4]float64
	// AlphaFraction is each architecture's α-write share (0 for baseline),
	// the §3.2 bottleneck metric explaining the spread.
	AlphaFraction [4]float64
	// CacheHitRate is WCPCM's hit rate on this benchmark (Fig. 6 context).
	CacheHitRate float64
}

// Fig5Result regenerates Fig. 5(a) (write) and Fig. 5(b) (read).
type Fig5Result struct {
	Rows []Fig5Row
	// MeanWrite and MeanRead are the across-benchmark arithmetic means of
	// the normalized latencies, the numbers the abstract quotes (e.g.
	// WOM-code PCM: 0.799 write → "20.1 % reduction").
	MeanWrite [4]float64
	MeanRead  [4]float64
}

// WriteReduction returns the paper-style percentage reduction of an
// architecture's mean write latency versus baseline.
func (r *Fig5Result) WriteReduction(a core.Arch) float64 { return reduction(r.MeanWrite[a]) }

// ReadReduction is WriteReduction for read latency.
func (r *Fig5Result) ReadReduction(a core.Arch) float64 { return reduction(r.MeanRead[a]) }

// Fig5 runs all benchmarks through all four architectures.
func Fig5(cfg ExpConfig) (*Fig5Result, error) { return runOne[*Fig5Result](cfg, fig5Plan) }

func fig5Plan(cfg ExpConfig, _ Params) (plan, error) {
	arches := core.Arches()
	cfgs := make([]memctrl.Config, len(arches))
	for a, arch := range arches {
		var err error
		if cfgs[a], err = cfg.archConfig(arch, cfg.Geometry); err != nil {
			return plan{}, err
		}
	}
	return plan{grid(cfg.Profiles, cfgs...), func(runs []*stats.Run) (any, string, error) {
		res := &Fig5Result{Rows: make([]Fig5Row, len(cfg.Profiles))}
		for p, prof := range cfg.Profiles {
			row := Fig5Row{Benchmark: prof.Name, Suite: prof.Suite}
			runs := runs[p*len(arches) : (p+1)*len(arches)]
			base := runs[core.Baseline]
			for a, run := range runs {
				w, r := run.Normalized(base)
				row.Write[a], row.Read[a] = w, r
				row.AlphaFraction[a] = run.AlphaFraction()
				if core.Arch(a) == core.WCPCM {
					row.CacheHitRate = run.CacheHitRate()
				}
				res.MeanWrite[a] += w / float64(len(cfg.Profiles))
				res.MeanRead[a] += r / float64(len(cfg.Profiles))
			}
			res.Rows[p] = row
		}
		return res, RenderFig5(res), nil
	}}, nil
}
