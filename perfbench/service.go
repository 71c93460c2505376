package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"womcpcm/internal/workload"
)

const (
	// missRequests is the request budget of every service job: a one-
	// benchmark fig5 at 5000 requests simulates in about 30 ms.
	missRequests = 5000
	// poolSize is the number of distinct keys hits are drawn from.
	poolSize = 16
	// serviceClients is the closed loop's client count, nproc on the
	// two-core machine the bounds were set on.
	serviceClients = 2
	// setupStarts is how many times set-up starts the program (womd, or
	// womsim -list on figures); setup_s is the median. One womd start
	// takes about 5 ms and single starts vary by tens of percent with the
	// host; the median of this many, taken over about two seconds, moves
	// by a few percent between runs.
	setupStarts = 301
)

// jobSeed derives the k-th distinct simulation seed of a benchmark seed;
// pool keys use k < poolSize and misses k ≥ poolSize, so no miss ever
// repeats a stored key.
func jobSeed(seed int64, k int) int64 {
	return (seed*1_000_003+int64(k))&(1<<62-1) + 1
}

// fig5Job is the body of a one-benchmark fig5 job.
func fig5Job(bench string, seed int64) []byte {
	b, err := json.Marshal(map[string]any{
		"experiment": "fig5",
		"params": map[string]any{
			"requests": missRequests, "seed": seed,
			"bench": []string{bench}, "parallelism": 1,
		},
	})
	if err != nil {
		panic(err) // a map of plain values always encodes
	}
	return b
}

// fig5Bench is the benchmark of a fig5 result's single row.
func fig5Bench(result []byte) (string, error) {
	var r struct {
		Experiment string `json:"experiment"`
		Data       struct {
			Rows []struct{ Benchmark string }
		} `json:"data"`
	}
	if err := json.Unmarshal(result, &r); err != nil {
		return "", err
	}
	if r.Experiment != "fig5" || len(r.Data.Rows) != 1 {
		return "", fmt.Errorf("result is %q with %d rows, want one fig5 row", r.Experiment, len(r.Data.Rows))
	}
	return r.Data.Rows[0].Benchmark, nil
}

// poolKey is one stored result hits resubmit.
type poolKey struct {
	body []byte // job request
	want []byte // canonical result stored when the key was filled
}

// service is a womd with -cache under a closed loop of serviceClients
// clients: three of four operations resubmit a stored key, one submits a
// fresh fig5 job.
type service struct {
	e       *env
	profile []workload.Profile
	pool    []poolKey
	d       *womd
	ops     []serviceOp // the last run's operations
}

func (s *service) opName() string { return "womd.op" }

func newService(e *env) mix { return &service{e: e, profile: workload.Profiles()} }

func (s *service) close() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
}

// setup fills the hit pool through one womd on a fresh store directory,
// stops it, then starts womd on the filled store setupStarts times; the
// last one serves the timed loop. setup_s includes the store's replay.
func (s *service) setup(ctx context.Context) (float64, error) {
	dir, err := os.MkdirTemp(s.e.work, "store-")
	if err != nil {
		return 0, err
	}
	fill, _, err := startWomd(ctx, s.e, "womd-fill.log", "-cache", dir)
	if err != nil {
		return 0, err
	}
	for k := range poolSize {
		bench := s.profile[k%len(s.profile)].Name
		body := fig5Job(bench, jobSeed(s.e.seed, k))
		op, err := fill.runJob(ctx, s.e.sc, body)
		if err == nil {
			err = checkMiss(op, bench)
		}
		if err != nil {
			fill.stop()
			return 0, fmt.Errorf("filling key %d: %w", k, err)
		}
		want, err := canonical(op.result)
		if err != nil {
			fill.stop()
			return 0, err
		}
		s.pool = append(s.pool, poolKey{body: body, want: want})
	}
	fill.stop()
	return startRepeated(ctx, s.e, &s.d, "-cache", dir)
}

// startRepeated starts womd setupStarts times with the given flags,
// keeping the last instance in *keep, and returns the median time to
// ready.
func startRepeated(ctx context.Context, e *env, keep **womd, flags ...string) (float64, error) {
	var starts []float64
	for i := range setupStarts {
		logName := "womd-start.log" // overwritten by each start but the last
		if i == setupStarts-1 {
			logName = "womd.log"
		}
		d, t, err := startWomd(ctx, e, logName, flags...)
		if err != nil {
			return 0, err
		}
		starts = append(starts, t)
		if i < setupStarts-1 {
			d.stop()
		} else {
			*keep = d
		}
	}
	return median(starts), nil
}

// checkMiss verifies a freshly simulated fig5 job.
func checkMiss(op jobOp, bench string) error {
	if op.view.Cached {
		return fmt.Errorf("fresh key for %s served from cache", bench)
	}
	got, err := fig5Bench(op.result)
	if err != nil {
		return err
	}
	if got != bench {
		return fmt.Errorf("result row is %s, want %s", got, bench)
	}
	return nil
}

// serviceOp is one completed operation of the loop.
type serviceOp struct {
	miss     bool
	traced   bool
	ms       float64 // submit → result
	execMs   float64 // finished_at − started_at
	engineMs float64 // latency − (finished_at − submitted_at)
	err      error
}

func (s *service) run(ctx context.Context, seconds float64, sc scope) (pass, error) {
	win, err := watch(s.d.proc.pid())
	if err != nil {
		return pass{}, err
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var (
		misses atomic.Int64
		mu     sync.Mutex
		ops    []serviceOp
		wg     sync.WaitGroup
	)
	for c := range serviceClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(s.e.seed), uint64(c)))
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				op := s.once(ctx, sc, rng, &misses, i%2 == 1)
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := since(t0)
	s.ops = ops
	cpuMs, rss, err := win.end(s.e)
	if err != nil {
		return pass{}, err
	}
	if err := ctx.Err(); err != nil {
		return pass{}, err
	}

	var p pass
	var all, hit, miss []float64
	for _, op := range ops {
		p.attempted++
		if op.err != nil {
			p.failed++
			if p.failed <= 5 {
				s.e.logf("  check: %v", op.err)
			}
			continue
		}
		all = append(all, op.ms)
		p.lat[b2i(op.traced)] = append(p.lat[b2i(op.traced)], op.ms)
		if op.miss {
			miss = append(miss, op.ms)
		} else {
			hit = append(hit, op.ms)
		}
	}
	done := float64(len(all))
	s.e.logf("service: womd -cache, %d clients closed loop, 3:1 hit:miss, fig5 one-benchmark jobs at %d requests",
		serviceClients, missRequests)
	s.e.timing("hit", hit)
	s.e.timing("miss", miss)
	s.e.timing("op", all)
	p.metrics = map[string]metric{
		"op_p50_ms":      {median(all), "ms"},
		"jobs_per_s":     {done / window, "1/s"},
		"cpu_ms_per_job": {cpuMs / max(done, 1), "ms"},
		"rss_mb":         {rss, "MB"},
	}
	return p, nil
}

// once runs one operation of a client: a miss with probability 1/4.
func (s *service) once(ctx context.Context, sc scope, rng *rand.Rand, misses *atomic.Int64, trace bool) serviceOp {
	op := serviceOp{miss: rng.IntN(4) == 0, traced: trace && sc.traced()}
	sp, opScope := sc.op(s.opName(), op.traced)
	defer sp.End()
	var body, want []byte
	bench := ""
	if op.miss {
		k := int(misses.Add(1) - 1)
		bench = s.profile[k%len(s.profile)].Name
		body = fig5Job(bench, jobSeed(s.e.seed, poolSize+k))
	} else {
		key := s.pool[rng.IntN(len(s.pool))]
		body, want = key.body, key.want
	}
	j, err := s.d.runJob(ctx, opScope, body)
	if err != nil {
		op.err = err
		return op
	}
	op.ms = float64(j.latency) / 1e6
	total, err := j.view.since(j.view.SubmittedAt)
	if err != nil {
		op.err = err
		return op
	}
	op.engineMs = op.ms - float64(total)/1e6
	if op.miss {
		exec, err := j.view.since(j.view.StartedAt)
		if err != nil {
			op.err = err
			return op
		}
		op.execMs = float64(exec) / 1e6
		op.err = checkMiss(j, bench)
		return op
	}
	got, err := canonical(j.result)
	switch {
	case err != nil:
		op.err = err
	case !j.view.Cached:
		op.err = fmt.Errorf("stored key resimulated instead of served from cache")
	case !bytes.Equal(got, want):
		op.err = fmt.Errorf("cache hit result differs from the stored result")
	}
	return op
}
