// Command perfbench is the repository benchmark. It drives the two programs
// users run, womsim and womd, from outside, on one of three workloads:
//
//	figures  womsim -fig all -json, one process per operation
//	service  a womd with a filled result store under a 3:1 cache hit/miss mix
//	replay   womd trace upload + replay job, one client
//
// With -trace 0 it measures the workload untraced and reports the
// end-to-end metrics. With -trace 1 it runs the layer suite, which times
// calls into each layer's public functions under named spans, and then the
// workload again with every other operation traced; it reports the
// per-layer metrics. Inputs are generated from -seed and every output is
// checked. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the binaries it drives.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs: where the binaries and scratch space
// are, the seed, and the child processes to stop on exit.
type env struct {
	bin   string // directory holding womsim and womd
	work  string // scratch directory for stores and logs, removed on exit
	spans string // directory the traced run writes its spans to
	// sc is where set-up calls record spans; zero in untraced runs.
	sc    scope
	seed  int64
	procs *procSet
	// report collects the human-readable lines printed before the result.
	report []string
}

func (e *env) logf(format string, args ...any) {
	e.report = append(e.report, fmt.Sprintf(format, args...))
}

// line records one reported value by name with its unit and a note.
func (e *env) line(name string, v float64, unit, note string) {
	e.logf("  %-32s %14.4f %-6s %s", name, v, unit, note)
}

// pass is the outcome of one measured loop over a workload's operations.
type pass struct {
	attempted, failed int
	metrics           map[string]metric
	// lat holds the latencies in ms of untraced [0] and traced [1]
	// operations that passed their checks.
	lat [2][]float64
}

// mix is one workload: a traffic mix. setup prepares inputs and starts
// whatever the timed loop needs, reporting setup_s; run measures operations
// until the deadline, giving every other one child spans when sc traces;
// opName names an operation's span; close stops the programs it started.
type mix interface {
	setup(ctx context.Context) (setupS float64, err error)
	run(ctx context.Context, seconds float64, sc scope) (pass, error)
	opName() string
	close()
}

var mixes = map[string]func(*env) mix{
	"figures": newFigures,
	"service": newService,
	"replay":  newReplay,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figures, service or replay")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 runs the layer suite and the traced pass and reports per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the womsim and womd binaries")
		work    = flag.String("work", "", "scratch directory")
	)
	flag.Parse()
	mk, ok := mixes[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || *seed < 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload figures|service|replay --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	tmp, err := os.MkdirTemp(mkdir(*work, "tmp"), *name+"-")
	if err != nil {
		fatal(err)
	}
	e := &env{bin: *bin, work: tmp, spans: mkdir(*work, "spans"), seed: *seed, procs: &procSet{}}
	res, err := runWorkload(ctx, e, mk(e), *name, *seconds, *traced == 1)
	e.procs.stopAll()
	stop()
	if rmErr := os.RemoveAll(tmp); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	for _, l := range e.report {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// runWorkload sets the workload up and runs its untraced pass (end-to-end
// metrics) or, when traced, the layer suite plus the half-traced pass
// (per-layer metrics).
func runWorkload(ctx context.Context, e *env, w mix, name string, seconds float64, traced bool) (*result, error) {
	defer w.close()
	e.logf("perfbench %s seed=%d seconds=%g trace=%t", name, e.seed, seconds, traced)
	if !traced {
		setupS, err := w.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", name, err)
		}
		p, err := w.run(ctx, seconds, scope{})
		if err != nil {
			return nil, err
		}
		p.metrics["setup_s"] = metric{setupS, "s"}
		e.line("setup_s", setupS, "s", "median set-up, see README")
		return finish(e, p), nil
	}

	rec := newRecorder(e.seed)
	root := rec.StartTrace("perfbench." + name)
	e.sc = scope{rec, root.Context()}
	suite, err := runLayers(ctx, e)
	if err != nil {
		return nil, err
	}
	if _, err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("setting up %s: %w", name, err)
	}
	p, err := w.run(ctx, seconds/2, e.sc)
	if err != nil {
		return nil, err
	}
	root.End()
	tree, err := snapshot(rec)
	if err != nil {
		return nil, err
	}
	rs := tree.byID[root.Context().SpanID]
	p.metrics = suite.metrics
	p.attempted += suite.attempted
	p.failed += suite.failed

	// Of the end-to-end metrics the traced run reproduces the median
	// operation latency, traced and not. Their difference is reported,
	// signed: it is often smaller than the noise between operations. The
	// metric is the recorder's own cost per fully traced operation.
	e.line("traced_minus_untraced_op_p50_ms", median(p.lat[1])-median(p.lat[0]), "ms", fmt.Sprintf(
		"signed, n=%d traced / %d untraced operations", len(p.lat[1]), len(p.lat[0])))
	perOp := tree.spansPerOp(rs, w.opName())
	over := spanCostNs(e.seed) / 1e3 * perOp
	p.metrics["bench.tracing_overhead_us"] = metric{over, "us"}
	e.line("bench.tracing_overhead_us", over, "us", fmt.Sprintf(
		"recorder cost of the %.2f spans of one traced %s", perOp, w.opName()))
	cov := tree.coverage(rs)
	p.metrics["bench.span_coverage_frac"] = metric{cov, "ratio"}
	e.line("bench.span_coverage_frac", cov, "ratio", "share of the traced run inside some layer span")
	tree.reportSelf(e, rs)
	path := filepath.Join(e.spans, fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if err := tree.write(path); err != nil {
		return nil, err
	}
	e.logf("  spans written to %s (Chrome trace-event JSON; womtool spans renders it)", path)
	return finish(e, p), nil
}

// finish turns a pass into the result line.
func finish(e *env, p pass) *result {
	frac := float64(p.failed) / float64(max(p.attempted, 1))
	e.line("failed_frac", frac, "ratio", fmt.Sprintf("%d of %d operations", p.failed, p.attempted))
	names := make([]string, 0, len(p.metrics))
	for k := range p.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	e.logf("metrics:")
	for _, k := range names {
		if v := p.metrics[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a pass whose operations all failed leaves a metric
			// without samples; it is already counted in failed.
			p.metrics[k] = metric{0, p.metrics[k].Unit}
		}
		e.line(k, p.metrics[k].Value, p.metrics[k].Unit, "")
	}
	return &result{
		Correct:   p.failed == 0 && p.attempted > 0,
		Attempted: max(p.attempted, 1),
		Failed:    p.failed,
		Metrics:   p.metrics,
	}
}

// mkdir joins the path elements and creates the directory. It is called
// before any child process starts, so exiting on failure leaks nothing.
func mkdir(elem ...string) string {
	dir := filepath.Join(elem...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// since reports seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
