// Package sim drives the paper's experiments (§5): it pairs the synthetic
// benchmark workloads with the four architectures and regenerates every
// figure of the evaluation — Fig. 5(a)/(b) normalized write/read latency,
// Fig. 6 WOM-cache hit rates, Fig. 7 WCPCM bank-count scaling — plus the
// ablations DESIGN.md calls out (refresh threshold, organization, write
// pausing, rewrite budget).
package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
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

// baseline is conventional PCM on c's geometry and timing: the
// normalization reference of every ablation, which add their WOM, refresh,
// cache or scheduling configs to it.
func (c ExpConfig) baseline() memctrl.Config {
	return memctrl.Config{Geometry: c.Geometry, Timing: c.Timing}
}

// archConfig is architecture a's core preset on geometry g.
func (c ExpConfig) archConfig(a core.Arch, g pcm.Geometry) (memctrl.Config, error) {
	opts := core.DefaultOptions()
	opts.Geometry = g
	opts.Timing = c.Timing
	sys, err := core.NewSystem(a, opts)
	if err != nil {
		return memctrl.Config{}, err
	}
	return sys.Config(), nil
}

// parMapCtx runs f(0..n-1) on at most workers goroutines and returns the
// first error. The first failure stops dispatch, and so does canceling
// ctx: no further indices start (in-flight calls finish), and ctx.Err() is
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
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		failed atomic.Bool
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue // drain: an index handed over after a failure does not start
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n && !failed.Load(); i++ {
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
