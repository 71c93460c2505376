package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"text/tabwriter"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// ReplayResult runs one recorded trace through all four architectures — the
// service-mode counterpart of the synthetic benchmarks: clients upload a
// trace once and compare architectures on their real access stream.
type ReplayResult struct {
	// Label names the trace (file path or upload id).
	Label string
	// Records is the number of records replayed per architecture.
	Records int
	// Runs holds one run per architecture, indexed like core.Arches().
	Runs []*stats.Run
	// NormWrite and NormRead are latencies normalized to the baseline run.
	NormWrite []float64
	NormRead  []float64
}

// Replay simulates recs on every architecture. The record slice is replayed
// verbatim for each architecture so all four see identical input; cfg's
// Requests field bounds the replay length when positive. Architectures run
// in parallel under cfg.Parallelism and honor cfg.Ctx. Replay is the run
// that feeds an Observer's Progress and Telemetry (WithObserver): progress
// counts records processed out of len(recs) × 4 as the architectures
// consume them, and each architecture streams finalized telemetry windows
// as its simulated clock advances.
func Replay(cfg ExpConfig, label string, recs []trace.Record) (*ReplayResult, error) {
	cfg = cfg.normalize()
	if err := trace.Validate(recs); err != nil {
		return nil, err
	}
	if cfg.Requests > 0 && cfg.Requests < len(recs) {
		recs = recs[:cfg.Requests]
	}
	arches := core.Arches()
	var done atomic.Int64
	total := int64(len(recs)) * int64(len(arches))
	res := &ReplayResult{
		Label:     label,
		Records:   len(recs),
		Runs:      make([]*stats.Run, len(arches)),
		NormWrite: make([]float64, len(arches)),
		NormRead:  make([]float64, len(arches)),
	}
	if err := parMapCtx(cfg.Ctx, len(arches), cfg.Parallelism, func(i int) error {
		mc, err := cfg.archConfig(arches[i], cfg.Geometry)
		if err != nil {
			return err
		}
		rep := &replayArch{label: arches[i].String(), done: &done, total: total}
		res.Runs[i], err = runCell(cfg.Ctx, cell{cfg: mc, prof: workload.Profile{Name: label}}, recs, rep, new(memctrl.Controller))
		return err
	}); err != nil {
		return nil, err
	}
	base := res.Runs[int(core.Baseline)]
	for i, run := range res.Runs {
		res.NormWrite[i], res.NormRead[i] = run.Normalized(base)
	}
	return res, nil
}

// RenderReplay formats the per-architecture comparison.
func RenderReplay(res *ReplayResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replay: %s (%d records)\n", res.Label, res.Records)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "architecture\tmean write\tmean read\tnorm. write\tnorm. read")
	for i, run := range res.Runs {
		fmt.Fprintf(tw, "%s\t%.1fns\t%.1fns\t%.3f\t%.3f\n", run.Arch,
			run.WriteLatency.Mean(), run.ReadLatency.Mean(), res.NormWrite[i], res.NormRead[i])
	}
	tw.Flush()
	return b.String()
}
