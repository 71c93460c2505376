package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"womcpcm/internal/sim"
)

// figuresRequests is the per-benchmark request budget of every womsim run.
// At 5000 one `-fig all` takes about 1.6–2.2 s on two cores, so a 30 s
// run holds 14 to 20 operations.
const figuresRequests = 5000

// figAll is the experiment list womsim runs for `-fig all`.
var figAll = []string{"fig5", "fig6", "fig7", "rth", "org", "pausing", "code", "sched", "hybrid", "channels"}

// pinnedFigures holds the sha256 of `womsim -fig all -json -requests 5000
// -seed S` standard output for the default seed and the held-out seed. The
// output is byte-deterministic; a changed digest means changed simulator
// output. Other seeds are checked against the library's own rendering.
var pinnedFigures = map[int64]string{
	1:    "1396b59acc1adaecc0da91acaa78515a36d597e69bb09d3f89737553abcde569",
	7919: "850bc9c2d59851d185c042ac697498b1dbd8b92553f5ab59eccf5b841f4d4705",
}

// figures runs `womsim -fig all -json` once per operation.
type figures struct {
	e    *env
	want string // expected stdout sha256
}

func newFigures(e *env) mix { return &figures{e: e} }

func (f *figures) close() {}

func (f *figures) opName() string { return "womsim.run" }

func (f *figures) womsim() string { return filepath.Join(f.e.bin, "womsim") }

// setup renders the expected output in-process and times womsim's start:
// the median of setupStarts `womsim -list` runs from exec to exit, which
// is the fixed cost (runtime and package initialisation, registry) every
// figure run pays before it simulates.
func (f *figures) setup(ctx context.Context) (float64, error) {
	sp := f.e.sc.start("sim.reference")
	out, err := figuresOutput(ctx, figuresRequests, f.e.seed)
	sp.End()
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(out)
	f.want = hex.EncodeToString(sum[:])
	if pin, ok := pinnedFigures[f.e.seed]; ok && pin != f.want {
		f.e.logf("  check: library output digest %s differs from the pinned %s", f.want, pin)
		f.want = pin // womsim must still reproduce the pinned bytes
	}
	var starts []float64
	for range setupStarts {
		sp := f.e.sc.start("womsim.list")
		t := time.Now()
		err := exec.CommandContext(ctx, f.womsim(), "-list").Run()
		starts = append(starts, since(t))
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("womsim -list: %w", err)
		}
	}
	return median(starts), nil
}

// figuresOutput renders `womsim -fig all -json` standard output through
// the simulation library.
func figuresOutput(ctx context.Context, requests int, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	params := sim.Params{Requests: requests, Seed: seed}
	for _, name := range figAll {
		exp, err := sim.LookupExperiment(name)
		if err != nil {
			return nil, err
		}
		res, err := exp.Run(ctx, params)
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", name, err)
		}
		if err := enc.Encode(map[string]any{"experiment": res.Experiment, "result": res.Data}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// womsimRun is one timed womsim process.
type womsimRun struct {
	wall, cpu time.Duration
	peakMB    float64 // peak resident set size
	rssMB     float64 // median of VmRSS sampled every 10 ms
	digest    string
}

// runWomsim runs `womsim -fig all -json` and hashes its standard output.
func runWomsim(ctx context.Context, bin string, requests int, seed int64) (womsimRun, error) {
	cmd := exec.CommandContext(ctx, bin, "-fig", "all", "-json",
		"-requests", fmt.Sprint(requests), "-seed", fmt.Sprint(seed))
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return womsimRun{}, fmt.Errorf("starting womsim: %w", err)
	}
	rss := sampleRSS(cmd.Process.Pid, 10*time.Millisecond)
	err := cmd.Wait()
	r := womsimRun{wall: time.Since(t), rssMB: median(rss.end())}
	if err != nil {
		return womsimRun{}, fmt.Errorf("womsim: %w: %s", err, stderr.Bytes())
	}
	r.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	sum := sha256.Sum256(out.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	return r, nil
}

func (f *figures) run(ctx context.Context, seconds float64, sc scope) (pass, error) {
	var (
		p         pass
		wall, cpu []float64
		rss, peak []float64
		t0        = time.Now()
		deadline  = t0.Add(time.Duration(seconds * float64(time.Second)))
	)
	steal0, tot0 := hostTicks()
	for i := 0; time.Now().Before(deadline); i++ {
		traced := sc.traced() && i%2 == 1
		sp, _ := sc.op(f.opName(), traced)
		r, err := runWomsim(ctx, f.womsim(), figuresRequests, f.e.seed)
		sp.End()
		p.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return p, ctx.Err()
			}
			f.e.logf("  check: %v", err)
			p.failed++
			continue
		}
		if r.digest != f.want {
			f.e.logf("  check: womsim output sha256 %s, want %s", r.digest, f.want)
			p.failed++
			continue
		}
		ms := float64(r.wall) / 1e6
		p.lat[b2i(traced)] = append(p.lat[b2i(traced)], ms)
		wall = append(wall, ms)
		cpu = append(cpu, float64(r.cpu)/1e6)
		rss = append(rss, r.rssMB)
		peak = append(peak, r.peakMB)
	}
	window := since(t0)
	f.e.logf("figures: womsim -fig all -json -requests %d -seed %d, default -workers; stdout sha256 %s",
		figuresRequests, f.e.seed, f.want)
	f.e.line("wall_s", median(wall)/1e3, "s", fmt.Sprintf("median of n=%d runs", len(wall)))
	f.e.line("cpu_s", median(cpu)/1e3, "s", fmt.Sprintf("median user+sys of n=%d runs", len(cpu)))
	f.e.timing("op", wall)
	f.e.line("max_rss_mb", quantile(peak, 1), "MB", fmt.Sprintf("largest peak RSS of n=%d processes", len(peak)))
	f.e.stealLine(steal0, tot0)
	p.metrics = map[string]metric{
		"op_p50_ms":      {median(wall), "ms"},
		"jobs_per_s":     {float64(len(wall)) / window, "1/s"},
		"cpu_ms_per_job": {median(cpu), "ms"},
		"rss_mb":         {median(rss), "MB"},
	}
	return p, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
