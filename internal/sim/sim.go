// Package sim drives the paper's experiments (§5): it pairs the synthetic
// benchmark workloads with the four architectures and regenerates every
// figure of the evaluation — Fig. 5(a)/(b) normalized write/read latency,
// Fig. 6 WOM-cache hit rates, Fig. 7 WCPCM bank-count scaling — plus the
// ablations DESIGN.md calls out (refresh threshold, organization, write
// pausing, rewrite budget).
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// ExpConfig parameterizes an experiment run. The zero value selects the
// paper's setup with a laptop-scale request budget.
type ExpConfig struct {
	// Geometry defaults to the paper's 16 ranks × 32 banks (§5).
	Geometry pcm.Geometry
	// Timing defaults to the paper's latencies.
	Timing pcm.Timing
	// Requests is the per-benchmark trace length (default 200000). Short
	// traces overstate cold-start α-writes that a long-running benchmark
	// would amortize away.
	Requests int
	// Seed makes every experiment reproducible (default 1).
	Seed int64
	// Profiles defaults to all 20 paper benchmarks.
	Profiles []workload.Profile
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// Ctx, when set, cancels the experiment between individual
	// simulations. Long-running services (cmd/womd) use it for job
	// timeouts and shutdown; nil means context.Background().
	Ctx context.Context
}

func (c ExpConfig) normalize() ExpConfig {
	if c.Geometry == (pcm.Geometry{}) {
		c.Geometry = pcm.DefaultGeometry()
	}
	if c.Timing == (pcm.Timing{}) {
		c.Timing = pcm.DefaultTiming()
	}
	if c.Requests == 0 {
		c.Requests = 200000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Profiles) == 0 {
		c.Profiles = workload.Profiles()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// source builds the deterministic request stream for one benchmark: the
// same (profile, geometry, seed) always replays the same trace, so every
// architecture sees identical input.
func (c ExpConfig) source(p workload.Profile, g pcm.Geometry) (trace.Source, error) {
	gen, err := workload.NewGenerator(p, g, c.Seed)
	if err != nil {
		return nil, err
	}
	return trace.NewLimit(gen, c.Requests), nil
}

// runArch simulates one benchmark on one architecture.
func (c ExpConfig) runArch(a core.Arch, p workload.Profile, g pcm.Geometry) (*stats.Run, error) {
	opts := core.DefaultOptions()
	opts.Geometry = g
	opts.Timing = c.Timing
	sys, err := core.NewSystem(a, opts)
	if err != nil {
		return nil, err
	}
	return c.runConfig(sys.Config(), p)
}

// runConfig simulates one benchmark on an explicit controller config (for
// ablations that reach past the core presets), with the instruments c.Ctx
// asks for attached.
func (c ExpConfig) runConfig(cfg memctrl.Config, p workload.Profile) (*stats.Run, error) {
	report := instrument(c.Ctx, &cfg, "")
	ctrl, err := memctrl.New(cfg)
	if err != nil {
		return nil, err
	}
	src, err := c.source(p, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	run, err := ctrl.Run(src)
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", cfg.ArchName(), p.Name, err)
	}
	run.Workload = p.Name
	report(run)
	return run, nil
}

// parMap runs f(0..n-1) on at most c.Parallelism goroutines, stopping
// between simulations if c.Ctx is canceled. c must be normalized.
func (c ExpConfig) parMap(n int, f func(i int) error) error {
	return parMapCtx(c.Ctx, n, c.Parallelism, f)
}

// parMap runs f(0..n-1) on at most workers goroutines and returns the first
// error.
func parMap(n, workers int, f func(i int) error) error {
	return parMapCtx(context.Background(), n, workers, f)
}

// parMapCtx is parMap with cancellation: once ctx is canceled no further
// indices are dispatched (in-flight calls finish) and ctx.Err() is
// returned unless a worker failed first.
func parMapCtx(ctx context.Context, n, workers int, f func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}

// reduction converts a normalized latency into the paper's "% reduction"
// phrasing: 0.80 normalized → 20 % reduction.
func reduction(normalized float64) float64 { return 100 * (1 - normalized) }
