package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// SchemaVersion tags the (Params, Result) wire schema. It is part of every
// resultstore content key, so bumping it — required whenever Params fields,
// result shapes, or simulator behavior change in a way that alters outputs —
// invalidates all previously cached results at once instead of serving
// stale data under a matching hash.
const SchemaVersion = "sim-v2"

// Params parameterizes a registry experiment through plain serializable
// fields, so one schema covers the CLI (cmd/womsim flags), the service API
// (cmd/womd JSON jobs), and tests. Zero values select the paper defaults.
type Params struct {
	// Requests bounds the per-benchmark trace length (default 200000).
	Requests int `json:"requests,omitempty"`
	// Seed makes runs reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Bench filters to named benchmarks (default all 20); mutually
	// exclusive with Suite.
	Bench []string `json:"bench,omitempty"`
	// Suite filters to one suite: "SPEC", "MiBench", or "SPLASH-2".
	Suite string `json:"suite,omitempty"`
	// Ranks and Banks override the paper geometry when positive.
	Ranks int `json:"ranks,omitempty"`
	Banks int `json:"banks,omitempty"`
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// Thresholds overrides the rth sweep points (default 0,5,10,25,50,75).
	Thresholds []float64 `json:"thresholds,omitempty"`
	// Rewrites overrides the code-ablation budgets (default 1,2,4,8).
	Rewrites []int `json:"rewrites,omitempty"`
	// Channels overrides the channel-scaling counts (default 1,2,4).
	Channels []int `json:"channels,omitempty"`
	// Profile supplies the custom workload for the "sweep" experiment.
	Profile *workload.Profile `json:"profile,omitempty"`

	// Trace and TraceLabel feed the "replay" experiment. They are not part
	// of the JSON schema: services resolve an uploaded trace id to records
	// before running (see internal/engine).
	Trace      []trace.Record `json:"-"`
	TraceLabel string         `json:"-"`
}

// Config builds the ExpConfig the params describe. ctx bounds the run.
func (p Params) Config(ctx context.Context) (ExpConfig, error) {
	cfg := ExpConfig{
		Requests:    p.Requests,
		Seed:        p.Seed,
		Parallelism: p.Parallelism,
		Ctx:         ctx,
	}
	g := pcm.DefaultGeometry()
	if p.Ranks > 0 {
		g.Ranks = p.Ranks
	}
	if p.Banks > 0 {
		g.BanksPerRank = p.Banks
	}
	cfg.Geometry = g
	profiles, err := SelectProfiles(p.Bench, p.Suite)
	if err != nil {
		return ExpConfig{}, err
	}
	cfg.Profiles = profiles
	return cfg, nil
}

// SelectProfiles resolves a benchmark-name filter or a suite filter to
// workload profiles; with neither it returns all 20 paper benchmarks.
func SelectProfiles(bench []string, suite string) ([]workload.Profile, error) {
	if len(bench) > 0 && suite != "" {
		return nil, fmt.Errorf("sim: bench and suite filters are mutually exclusive")
	}
	if len(bench) > 0 {
		out := make([]workload.Profile, 0, len(bench))
		for _, name := range bench {
			p, err := workload.ProfileByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	}
	if suite != "" {
		var s workload.Suite
		switch strings.ToLower(suite) {
		case "spec":
			s = workload.SPEC
		case "mibench":
			s = workload.MiB
		case "splash-2", "splash2", "splash":
			s = workload.SPLASH
		default:
			return nil, fmt.Errorf("sim: unknown suite %q", suite)
		}
		return workload.SuiteProfiles(s), nil
	}
	return workload.Profiles(), nil
}

// Result is one completed experiment: the structured data (JSON-friendly)
// plus the human-readable table the CLI prints.
type Result struct {
	Experiment string `json:"experiment"`
	Data       any    `json:"data"`
	Text       string `json:"text,omitempty"`
}

// Experiment is one named, parameterizable entry in the registry — a paper
// figure, an ablation, or a custom run. The same registry backs cmd/womsim
// (one-shot CLI) and cmd/womd (job service).
type Experiment struct {
	// Name is the canonical registry key (e.g. "fig5", "rth", "sweep").
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description"`
	// NeedsProfile marks experiments requiring Params.Profile ("sweep").
	NeedsProfile bool `json:"needs_profile,omitempty"`
	// NeedsTrace marks experiments requiring Params.Trace ("replay").
	NeedsTrace bool `json:"needs_trace,omitempty"`

	// build plans the experiment for one normalized ExpConfig: the cells
	// it needs simulated and the reduce from their runs to its result.
	build func(cfg ExpConfig, p Params) (plan, error)
}

// Run executes the experiment; it is Run(ctx, p, e). The context cancels
// the run between individual simulations.
func (e Experiment) Run(ctx context.Context, p Params) (*Result, error) {
	res, err := Run(ctx, p, e)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// registry maps canonical experiment names to their definitions.
var registry = map[string]Experiment{
	"fig5": {
		Name:        "fig5",
		Description: "Fig. 5(a)/(b): normalized write/read latency of the four architectures",
		build:       fig5Plan,
	},
	"fig6": {
		Name:        "fig6",
		Description: "Fig. 6: WOM-cache hit rate per banks/rank organization",
		build:       fig6Plan,
	},
	"fig7": {
		Name:        "fig7",
		Description: "Fig. 7: WCPCM write latency scaling with banks/rank",
		build:       fig7Plan,
	},
	"rth": {
		Name:        "rth",
		Description: "Ablation: PCM-refresh threshold r_th sweep (§3.2)",
		build: func(cfg ExpConfig, p Params) (plan, error) {
			return rthPlan(cfg, orDefault(p.Thresholds, []float64{0, 5, 10, 25, 50, 75})), nil
		},
	},
	"org": {
		Name:        "org",
		Description: "Ablation: wide-column vs hidden-page organization (§3.1)",
		build:       orgPlan,
	},
	"pausing": {
		Name:        "pausing",
		Description: "Ablation: write pausing during PCM-refresh (§3.2)",
		build:       pausingPlan,
	},
	"code": {
		Name:        "code",
		Description: "Ablation: WOM rewrite budget k vs the §3.2 analytic bound",
		build: func(cfg ExpConfig, p Params) (plan, error) {
			return codePlan(cfg, orDefault(p.Rewrites, []int{1, 2, 4, 8})), nil
		},
	},
	"sched": {
		Name:        "sched",
		Description: "Ablation: write scheduling ([7]) vs WOM-coding",
		build:       schedPlan,
	},
	"hybrid": {
		Name:        "hybrid",
		Description: "Ablation: WCPCM vs hybrid DRAM/PCM cache (§4, [18])",
		build:       hybridPlan,
	},
	"channels": {
		Name:        "channels",
		Description: "Extension: multi-channel scaling of PCM-refresh",
		build: func(cfg ExpConfig, p Params) (plan, error) {
			return channelsPlan(cfg, orDefault(p.Channels, []int{1, 2, 4}))
		},
	},
	"sweep": {
		Name:         "sweep",
		Description:  "Custom workload: run a caller-defined profile through all four architectures",
		NeedsProfile: true,
		build: func(cfg ExpConfig, p Params) (plan, error) {
			if err := p.Profile.Validate(); err != nil {
				return plan{}, err
			}
			cfg.Profiles = []workload.Profile{*p.Profile}
			return fig5Plan(cfg, p)
		},
	},
	"replay": {
		Name:        "replay",
		Description: "Replay an uploaded trace through all four architectures",
		NeedsTrace:  true,
		// The trace is supplied, not generated, so replay plans no cells:
		// its reduce runs Replay, which carries progress and telemetry.
		build: func(cfg ExpConfig, p Params) (plan, error) {
			label := p.TraceLabel
			if label == "" {
				label = "trace"
			}
			return plan{reduce: func([]*stats.Run) (any, string, error) {
				res, err := Replay(cfg, label, p.Trace)
				if err != nil {
					return nil, "", err
				}
				return res, RenderReplay(res), nil
			}}, nil
		},
	},
}

// orDefault returns xs, or def when xs is empty.
func orDefault[T any](xs, def []T) []T {
	if len(xs) == 0 {
		return def
	}
	return xs
}

// aliases maps the historical womsim -fig spellings to canonical names.
var aliases = map[string]string{
	"5": "fig5", "5a": "fig5", "5b": "fig5",
	"6": "fig6", "7": "fig7",
}

// LookupExperiment resolves a canonical name or womsim alias.
func LookupExperiment(name string) (Experiment, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	exp, ok := registry[key]
	if !ok {
		return Experiment{}, fmt.Errorf("sim: unknown experiment %q (have %s)",
			name, strings.Join(ExperimentNames(), ", "))
	}
	return exp, nil
}

// Experiments lists the registry sorted by name.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ExperimentNames lists the canonical names sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
