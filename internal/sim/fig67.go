package sim

import (
	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
	"womcpcm/internal/workload"
)

// Fig6BankCounts are the four organizations the paper sweeps.
var Fig6BankCounts = []int{4, 8, 16, 32}

// Fig6Row is one benchmark's WOM-cache hit rate per banks/rank setting.
type Fig6Row struct {
	Benchmark string
	Suite     workload.Suite
	HitRate   []float64 // parallel to the result's BanksPerRank
}

// Fig6Result regenerates Fig. 6: hit rate falls as banks/rank (and with it
// the number of bank tags competing for each cache row) grows.
type Fig6Result struct {
	BanksPerRank []int
	Rows         []Fig6Row
	Mean         []float64
}

// Fig7Row is one benchmark's WCPCM write latency per banks/rank setting,
// normalized to the 4-banks/rank organization.
type Fig7Row struct {
	Benchmark string
	Suite     workload.Suite
	NormWrite []float64
}

// Fig7Result regenerates Fig. 7: write latency falls as banks/rank grows
// (more parallelism for victim write-backs and main-memory traffic).
type Fig7Result struct {
	BanksPerRank []int
	Rows         []Fig7Row
	Mean         []float64
}

// Fig6 measures the WOM-cache hit rate per organization.
func Fig6(cfg ExpConfig) (*Fig6Result, error) { return runOne[*Fig6Result](cfg, fig6Plan) }

// Fig7 measures WCPCM write latency per organization, normalized to the
// 4-banks/rank configuration.
func Fig7(cfg ExpConfig) (*Fig7Result, error) { return runOne[*Fig7Result](cfg, fig7Plan) }

// bankCells runs WCPCM on every profile at each Fig6BankCounts
// organization, profile-major. Fig. 6 and Fig. 7 read the same runs.
func bankCells(cfg ExpConfig) ([]cell, error) {
	cfgs := make([]memctrl.Config, len(Fig6BankCounts))
	for b, banks := range Fig6BankCounts {
		g := cfg.Geometry
		g.BanksPerRank = banks
		var err error
		if cfgs[b], err = cfg.archConfig(core.WCPCM, g); err != nil {
			return nil, err
		}
	}
	return grid(cfg.Profiles, cfgs...), nil
}

func fig6Plan(cfg ExpConfig, _ Params) (plan, error) {
	cells, err := bankCells(cfg)
	return plan{cells, func(runs []*stats.Run) (any, string, error) {
		nb := len(Fig6BankCounts)
		res := &Fig6Result{
			BanksPerRank: append([]int(nil), Fig6BankCounts...),
			Rows:         make([]Fig6Row, len(cfg.Profiles)),
			Mean:         make([]float64, nb),
		}
		for p, prof := range cfg.Profiles {
			row := Fig6Row{Benchmark: prof.Name, Suite: prof.Suite, HitRate: make([]float64, nb)}
			for b, run := range runs[p*nb : (p+1)*nb] {
				row.HitRate[b] = run.CacheHitRate()
				res.Mean[b] += row.HitRate[b] / float64(len(cfg.Profiles))
			}
			res.Rows[p] = row
		}
		return res, RenderFig6(res), nil
	}}, err
}

func fig7Plan(cfg ExpConfig, _ Params) (plan, error) {
	cells, err := bankCells(cfg)
	return plan{cells, func(runs []*stats.Run) (any, string, error) {
		nb := len(Fig6BankCounts)
		res := &Fig7Result{
			BanksPerRank: append([]int(nil), Fig6BankCounts...),
			Rows:         make([]Fig7Row, len(cfg.Profiles)),
			Mean:         make([]float64, nb),
		}
		for p, prof := range cfg.Profiles {
			row := Fig7Row{Benchmark: prof.Name, Suite: prof.Suite, NormWrite: make([]float64, nb)}
			runs := runs[p*nb : (p+1)*nb]
			for b, run := range runs {
				if first := runs[0].WriteLatency.Mean(); first > 0 {
					row.NormWrite[b] = run.WriteLatency.Mean() / first
				}
				res.Mean[b] += row.NormWrite[b] / float64(len(cfg.Profiles))
			}
			res.Rows[p] = row
		}
		return res, RenderFig7(res), nil
	}}, err
}
