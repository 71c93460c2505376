package sim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"womcpcm/internal/core"
	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// countingGen wraps workload.Generate, counting calls per trace and the
// trace groups holding records at once (generated and not yet dropped).
type countingGen struct {
	mu        sync.Mutex
	calls     map[traceKey]int
	live, max int
	fail      error // when set, every call fails with it
}

func (g *countingGen) gen(p workload.Profile, geo pcm.Geometry, seed int64, n int) ([]trace.Record, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = map[traceKey]int{}
	}
	g.calls[traceKey{p, geo}]++
	if g.fail != nil {
		return nil, g.fail
	}
	g.live++
	g.max = max(g.max, g.live)
	return workload.Generate(p, geo, seed, n)
}

func (g *countingGen) dropped() {
	g.mu.Lock()
	g.live--
	g.mu.Unlock()
}

// figAllPlans builds every `-fig all` experiment's plan for params.
func figAllPlans(t *testing.T, p Params) (ExpConfig, []plan) {
	t.Helper()
	cfg, err := p.Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.normalize()
	var plans []plan
	for _, name := range figAll {
		exp, err := LookupExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := exp.build(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pl)
	}
	return cfg, plans
}

// TestRunPlansTraceGroups: across the ten `-fig all` experiments on three
// benchmarks, each trace is generated exactly once (four geometries per
// benchmark: Fig. 6/7's bank sweep), groups are generated in dispatch
// order so no more than Parallelism of them hold records at once, and
// every group's records are dropped by the end.
func TestRunPlansTraceGroups(t *testing.T) {
	for _, par := range []int{1, 2, 3} {
		cfg, plans := figAllPlans(t, Params{Requests: 300, Parallelism: par,
			Bench: []string{"qsort", "ocean", "464.h264ref"}})
		var g countingGen
		if _, err := runPlans(cfg, plans, g.gen, g.dropped); err != nil {
			t.Fatal(err)
		}
		if len(g.calls) != 3*len(Fig6BankCounts) {
			t.Errorf("parallelism %d: %d distinct traces generated, want %d", par, len(g.calls), 3*len(Fig6BankCounts))
		}
		for k, n := range g.calls {
			if n != 1 {
				t.Errorf("parallelism %d: %s at %d banks/rank generated %d times", par, k.prof.Name, k.geometry.BanksPerRank, n)
			}
		}
		if g.max > par {
			t.Errorf("parallelism %d: %d trace groups held records at once", par, g.max)
		}
		if g.live != 0 {
			t.Errorf("parallelism %d: %d trace groups never dropped", par, g.live)
		}
	}
}

// TestRunPlansStopsOnError: a failing cell's error is returned and no
// further cell is dispatched.
func TestRunPlansStopsOnError(t *testing.T) {
	cfg, plans := figAllPlans(t, Params{Requests: 300, Parallelism: 1,
		Bench: []string{"qsort", "ocean", "464.h264ref"}})
	sentinel := errors.New("generator down")
	g := countingGen{fail: sentinel}
	if _, err := runPlans(cfg, plans, g.gen, g.dropped); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if len(g.calls) != 1 {
		t.Errorf("%d trace groups dispatched after the first failure, want 1", len(g.calls))
	}
}

// TestPlannedFigAllCounts: for qsort at 1000 requests, the ten experiments
// run one by one make 41 simulations; planned together they make the 23
// distinct ones over 4 generated traces. rth's 0% and 5% thresholds are
// one cell on 32 banks, and channels' 1-channel point is fig5's PCM-refresh
// cell. An Observer's ClassCounts reports once per simulation actually run.
func TestPlannedFigAllCounts(t *testing.T) {
	params := Params{Requests: 1000, Bench: []string{"qsort"}}
	var calls atomic.Int64
	ctx := WithObserver(context.Background(), Observer{ClassCounts: func([probe.NumWriteKinds]uint64) { calls.Add(1) }})
	alone := map[string]int64{"fig5": 4, "fig6": 4, "fig7": 4, "rth": 6, "org": 3,
		"pausing": 3, "code": 5, "sched": 6, "hybrid": 3, "channels": 3}
	var exps []Experiment
	for _, name := range figAll {
		exp, err := LookupExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, exp)
		calls.Store(0)
		if _, err := exp.Run(ctx, params); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != alone[name] {
			t.Errorf("%s alone: %d simulations, want %d", name, got, alone[name])
		}
	}
	calls.Store(0)
	if _, err := Run(ctx, params, exps...); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 23 {
		t.Errorf("planned -fig all: %d simulations, want 23", got)
	}

	cfg, plans := figAllPlans(t, params)
	var g countingGen
	if _, err := runPlans(cfg, plans, g.gen, g.dropped); err != nil {
		t.Fatal(err)
	}
	if len(g.calls) != 4 {
		t.Errorf("planned -fig all: %d traces generated, want 4", len(g.calls))
	}
}

// TestCellKeyByValue: keys compare configs by value, never by pointer,
// ignore the instrumentation hooks, and key the refresh threshold by the
// candidate-bank count it resolves to.
func TestCellKeyByValue(t *testing.T) {
	cfg := ExpConfig{}.normalize()
	a, b := cfg.baseline(), cfg.baseline()
	a.WOM, b.WOM = memctrl.DefaultWOM(), memctrl.DefaultWOM()
	b.Events = new(atomic.Int64)
	if (cell{cfg: a}).key() != (cell{cfg: b}).key() {
		t.Error("equal configs behind distinct pointers got distinct keys")
	}
	b.WOM.Rewrites = 4
	if (cell{cfg: a}).key() == (cell{cfg: b}).key() {
		t.Error("different rewrite budgets share a key")
	}
	wcpcm, err := cfg.archConfig(core.WCPCM, cfg.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	if (cell{cfg: wcpcm}).key() == (cell{cfg: wcpcm, channels: 1}).key() {
		t.Error("a one-channel MultiChannel shares a plain controller's key")
	}

	refresh := func(pct float64) cellKey {
		mc := cfg.baseline()
		mc.WOM = memctrl.DefaultWOM()
		mc.Refresh = &memctrl.RefreshConfig{ThresholdPct: pct, TableSize: 5}
		return cell{cfg: mc}.key()
	}
	if cfg.Geometry.BanksPerRank != 32 {
		t.Fatalf("default geometry has %d banks per rank, want 32", cfg.Geometry.BanksPerRank)
	}
	if refresh(0) != refresh(5) {
		t.Error("r_th 0% and 5% need one bank each on 32 banks but got distinct keys")
	}
	if refresh(0) == refresh(10) {
		t.Error("r_th 0% (one bank) and 10% (three banks) share a key")
	}
}

// TestRthInvalidThresholdFails: a threshold above 100% fails the sweep with
// the refresh-threshold error although it resolves to the same bank count
// as 100%, and no trace is generated for the failed run.
func TestRthInvalidThresholdFails(t *testing.T) {
	exp, err := LookupExperiment("rth")
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Requests: 300, Bench: []string{"qsort"}, Thresholds: []float64{100, 101}}
	if _, err := exp.Run(context.Background(), params); err == nil || !strings.Contains(err.Error(), "refresh threshold 101%") {
		t.Fatalf("err = %v, want the refresh-threshold error for 101%%", err)
	}
	cfg, err := params.Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.normalize()
	pl, err := exp.build(cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	var g countingGen
	if _, err := runPlans(cfg, []plan{pl}, g.gen, g.dropped); err == nil {
		t.Fatal("runPlans accepted a 101% threshold")
	}
	if len(g.calls) != 0 {
		t.Errorf("%d traces generated before the invalid threshold was rejected", len(g.calls))
	}
}

// TestExperimentsMarshalAtOneRequest: every generated-workload experiment
// still yields JSON-encodable data when the trace holds a single read, so
// the baseline has no writes to normalize against.
func TestExperimentsMarshalAtOneRequest(t *testing.T) {
	qsort, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range Experiments() {
		if exp.NeedsTrace {
			continue
		}
		t.Run(exp.Name, func(t *testing.T) {
			params := Params{Requests: 1, Bench: []string{"qsort"}}
			if exp.NeedsProfile {
				params.Bench, params.Profile = nil, &qsort
			}
			res, err := exp.Run(context.Background(), params)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(res.Data); err != nil {
				t.Errorf("marshal: %v", err)
			}
		})
	}
}
