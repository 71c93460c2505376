package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// cell is one simulation an experiment needs: a hook-free controller
// config run over one benchmark's generated trace, either on one
// controller (channels 0) or striped across channels controllers
// (memctrl.NewMultiChannel). The trace's geometry is cfg.Geometry; its
// seed and length come from the run's ExpConfig.
type cell struct {
	cfg      memctrl.Config
	channels int
	prof     workload.Profile
}

// cellKey is a cell's identity by behaviour. The config's sub-configs are
// dereferenced, each with a presence bit, and its hooks (Probe, Events)
// are left out; the refresh threshold is keyed as the candidate-bank count
// the controller applies (RefreshConfig.CandidateBanks), so r_th values that
// round to the same count share a key. Two cells share a key exactly when
// they simulate the same thing, provided both configs validate: the key of
// an invalid config may equal a valid one's. Formatting a Config with %v
// would instead print its pointers as addresses, which the GC reuses.
type cellKey struct {
	geometry                               pcm.Geometry
	timing                                 pcm.Timing
	wom                                    memctrl.WOMConfig
	refresh                                memctrl.RefreshConfig
	candidateBanks                         int
	cache                                  memctrl.CacheConfig
	sched                                  memctrl.SchedConfig
	hasWOM, hasRefresh, hasCache, hasSched bool
	pausePenalty                           memctrl.Clock
	channels                               int
	prof                                   workload.Profile
}

func (c cell) key() cellKey {
	k := cellKey{geometry: c.cfg.Geometry, timing: c.cfg.Timing,
		pausePenalty: c.cfg.PausePenalty, channels: c.channels, prof: c.prof}
	k.wom, k.hasWOM = deref(c.cfg.WOM)
	k.refresh, k.hasRefresh = deref(c.cfg.Refresh)
	if k.hasRefresh {
		k.candidateBanks = k.refresh.CandidateBanks(c.cfg.Geometry.BanksPerRank)
		k.refresh.ThresholdPct = 0
	}
	k.cache, k.hasCache = deref(c.cfg.Cache)
	k.sched, k.hasSched = deref(c.cfg.Sched)
	return k
}

func deref[T any](p *T) (v T, ok bool) {
	if p == nil {
		return v, false
	}
	return *p, true
}

// traceKey identifies a generated trace: cells with equal keys replay the
// same records.
type traceKey struct {
	prof     workload.Profile
	geometry pcm.Geometry
}

// grid is the cells of every profile × config pair, profile-major: the
// run of (profile p, config i) lands at p*len(cfgs)+i.
func grid(profiles []workload.Profile, cfgs ...memctrl.Config) []cell {
	cells := make([]cell, 0, len(profiles)*len(cfgs))
	for _, p := range profiles {
		for _, c := range cfgs {
			cells = append(cells, cell{cfg: c, prof: p})
		}
	}
	return cells
}

// plan is what one experiment needs simulated and how it turns the runs
// into its result and table. reduce receives runs parallel to cells. A
// run may be shared with other plans, so reduce only reads it.
type plan struct {
	cells  []cell
	reduce func(runs []*stats.Run) (any, string, error)
}

// traceGen generates one benchmark trace; production uses
// workload.Generate.
type traceGen func(p workload.Profile, g pcm.Geometry, seed int64, n int) ([]trace.Record, error)

// runPlans runs plans as one: every distinct cell across them is simulated
// once (runCells) and each plan is then reduced over its runs. cfg must be
// normalized. The results carry no experiment name.
func runPlans(cfg ExpConfig, plans []plan, gen traceGen, dropped func()) ([]*Result, error) {
	var cells []cell
	for _, pl := range plans {
		cells = append(cells, pl.cells...)
	}
	runs, err := runCells(cfg, cells, gen, dropped)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(plans))
	for i, pl := range plans {
		data, text, err := pl.reduce(runs[:len(pl.cells)])
		if err != nil {
			return nil, err
		}
		out[i] = &Result{Data: data, Text: text}
		runs = runs[len(pl.cells):]
	}
	return out, nil
}

// runCells simulates each distinct cell once and returns runs parallel to
// cells. Every cell's config is validated before it is keyed, so an invalid
// config fails the run instead of sharing a valid cell's key. Distinct
// cells are grouped by trace and dispatched group by group through
// parMapCtx: a group's first cell generates its records with gen, every
// cell replays them through its own source, and the last cell to finish
// drops them (and calls dropped, when set). Since cells go out in group
// order, at most cfg.Parallelism groups hold records at once, while the
// cells of one group still run in parallel. Each cell borrows a controller
// from a free list of at most cfg.Parallelism, resets it to its config and
// returns it when done, so the run builds one controller per worker; the
// list goes with the call. The first failing cell stops dispatch and its
// error is returned.
func runCells(cfg ExpConfig, cells []cell, gen traceGen, dropped func()) ([]*stats.Run, error) {
	type group struct {
		once    sync.Once
		recs    []trace.Record
		err     error
		pending atomic.Int32 // cells not yet finished
	}
	var (
		distinct []cell
		slot     = make([]int, len(cells)) // cells[i] runs as distinct[slot[i]]
		seen     = make(map[cellKey]int)
		byTrace  = make(map[traceKey]int)
		members  [][]int // distinct cells per trace group, in first-use order
	)
	for i, c := range cells {
		if err := c.cfg.Validate(); err != nil {
			return nil, err
		}
		k := c.key()
		j, ok := seen[k]
		if !ok {
			j = len(distinct)
			seen[k] = j
			distinct = append(distinct, c)
			tk := traceKey{c.prof, c.cfg.Geometry}
			g, ok := byTrace[tk]
			if !ok {
				g = len(members)
				byTrace[tk] = g
				members = append(members, nil)
			}
			members[g] = append(members[g], j)
		}
		slot[i] = j
	}
	order := make([]int, 0, len(distinct))
	groupOf := make([]*group, len(distinct))
	for _, m := range members {
		g := &group{}
		g.pending.Store(int32(len(m)))
		for _, j := range m {
			groupOf[j] = g
		}
		order = append(order, m...)
	}

	runs := make([]*stats.Run, len(distinct))
	// free holds the controllers no cell is using; parMapCtx runs at most
	// Parallelism cells at once, so a send never blocks.
	free := make(chan *memctrl.Controller, max(cfg.Parallelism, 1))
	err := parMapCtx(cfg.Ctx, len(order), cfg.Parallelism, func(i int) error {
		j := order[i]
		c, g := distinct[j], groupOf[j]
		g.once.Do(func() {
			g.recs, g.err = gen(c.prof, c.cfg.Geometry, cfg.Seed, max(cfg.Requests, 0))
		})
		err := g.err
		if err == nil {
			var ctrl *memctrl.Controller
			select {
			case ctrl = <-free:
			default:
				ctrl = new(memctrl.Controller)
			}
			runs[j], err = runCell(cfg.Ctx, c, g.recs, nil, "", ctrl)
			free <- ctrl
		}
		if g.pending.Add(-1) == 0 && g.recs != nil {
			g.recs = nil
			if dropped != nil {
				dropped()
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Run, len(cells))
	for i, j := range slot {
		out[i] = runs[j]
	}
	return out, nil
}

// runCell simulates c over recs on ctrl with the instruments ctx asks for
// attached (see instrument; arch labels telemetry and is set by Replay only)
// and labels the run with c's workload. A plain-controller cell resets ctrl
// to its config and reads src, a source of recs (nil selects a plain slice
// source; Replay counts progress through its own). A multi-channel cell
// runs its channels one after another on ctrl (memctrl.RunChannels),
// reading recs in place; since they run in turn, they share one probe.
func runCell(ctx context.Context, c cell, recs []trace.Record, src trace.Source, arch string, ctrl *memctrl.Controller) (*stats.Run, error) {
	cfg := c.cfg
	report := instrument(ctx, &cfg, arch)
	var (
		run *stats.Run
		err error
	)
	if c.channels == 0 {
		if src == nil {
			src = trace.NewSliceSource(recs)
		}
		if err = ctrl.Reset(cfg); err != nil {
			return nil, err
		}
		run, err = ctrl.Run(src)
	} else {
		run, err = memctrl.RunChannels(ctrl, cfg, c.channels, recs)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", cfg.ArchName(), c.prof.Name, err)
	}
	run.Workload = c.prof.Name
	report(run)
	return run, nil
}

// runOne runs the single plan build makes from the normalized cfg and
// returns its result data: the body of every exported experiment function.
func runOne[T any](cfg ExpConfig, build func(ExpConfig, Params) (plan, error)) (T, error) {
	var zero T
	cfg = cfg.normalize()
	pl, err := build(cfg, Params{})
	if err != nil {
		return zero, err
	}
	out, err := runPlans(cfg, []plan{pl}, workload.Generate, nil)
	if err != nil {
		return zero, err
	}
	return out[0].Data.(T), nil
}

// Run runs exps under one set of params as a single plan: each distinct
// simulation across them runs once, over traces generated once, and the
// results come back in exps order. Instruments on ctx (WithClassCounts,
// WithSimEvents) therefore report once per simulation actually run. ctx
// cancels the run between simulations.
func Run(ctx context.Context, p Params, exps ...Experiment) ([]*Result, error) {
	for _, e := range exps {
		switch {
		case e.build == nil:
			return nil, fmt.Errorf("sim: experiment %q is not runnable", e.Name)
		case e.NeedsProfile && p.Profile == nil:
			return nil, fmt.Errorf("sim: experiment %q needs params.profile", e.Name)
		case e.NeedsTrace && len(p.Trace) == 0:
			return nil, fmt.Errorf("sim: experiment %q needs an input trace", e.Name)
		}
	}
	cfg, err := p.Config(ctx)
	if err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	plans := make([]plan, len(exps))
	for i, e := range exps {
		if plans[i], err = e.build(cfg, p); err != nil {
			return nil, err
		}
	}
	results, err := runPlans(cfg, plans, workload.Generate, nil)
	if err != nil {
		return nil, err
	}
	for i, e := range exps {
		results[i].Experiment = e.Name
	}
	return results, nil
}
