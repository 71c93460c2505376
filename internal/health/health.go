// Package health is womd's SLO-evaluation and alerting engine: it turns
// the signals the rest of the system already exposes — per-tenant
// windowed SLO attainment (internal/sched), queue occupancy and shed
// counters (internal/engine), slow-job profile captures (perfmon) — into
// alerts with a full lifecycle.
//
// The centerpiece is Google-SRE-style multi-window burn-rate evaluation:
// a tenant's error budget is 1−objective, its burn rate over a window is
// (1 − attainment(window)) / (1 − objective), and a rule fires only when
// both a short and a long window burn faster than the rule's factor — the
// short window makes detection fast, the long window keeps a momentary
// blip from paging. Each burn_rate rule evaluates two such pairs: a fast
// pair (default 1m/5m at 14×) that catches budget-destroying incidents in
// minutes, and a slow pair (default 5m/30m at 3×) for sustained
// degradation. Structural rules (queue_saturation, shed_rate, slow_jobs)
// watch the planes an SLO
// ratio cannot see.
//
// Every alert walks pending → firing → resolved: a violation must hold
// for the rule's `for_s` before it fires (a pending alert that clears
// first is dropped and counted as a flap), and a firing alert survives
// `keep_firing_s` of healthy evaluations before resolving (flap damping).
// Alerts dedup by rule+subject, and their annotations carry an exemplar
// job/trace id (Exemplars, fed by the engine) linking straight into
// GET /v1/jobs/{id}/trace. Served as GET /v1/alerts and womd_alert_*
// metric families; `womtool top` renders the live view. See DESIGN.md §14.
package health

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// State is an alert's lifecycle position.
type State string

const (
	// StatePending: the condition is true but has not yet held for the
	// rule's `for_s`.
	StatePending State = "pending"
	// StateFiring: the condition held long enough; the alert is live.
	StateFiring State = "firing"
	// StateResolved: a previously firing alert whose condition stayed
	// clear for `keep_firing_s`.
	StateResolved State = "resolved"
)

// Rule kinds. Each kind reads one signal plane; see Rule.
const (
	KindBurnRate        = "burn_rate"
	KindQueueSaturation = "queue_saturation"
	KindShedRate        = "shed_rate"
	KindSlowJobs        = "slow_jobs"
)

// Default burn-rate windows and factors, per the SRE-workbook pairing.
const (
	defaultFastShortS = 60
	defaultFastLongS  = 300
	defaultSlowShortS = 300
	defaultSlowLongS  = 1800
	defaultFastBurn   = 14
	defaultSlowBurn   = 3
)

// MaxBurnWindow is the longest burn-rate window a rule may name: the
// reach of the scheduler's per-second SLO ring (sched.SLOHorizon), which
// answers every window. A longer window would be silently cut to the
// ring, so Validate rejects it instead.
const MaxBurnWindow = 2048 * time.Second

// Rule is one alerting rule, the unit of the -alert-rules JSON file.
//
// Kind selects the signal and the meaning of Threshold:
//
//   - burn_rate: per tenant with a deadline, fire when both windows of a
//     pair burn the error budget (1−Objective) faster than the pair's
//     factor. Emits alerts named "<name>-fast" / "<name>-slow" with the
//     tenant as subject. Threshold is unused.
//   - queue_saturation: queued depth / capacity ≥ Threshold
//     (default 0.9). Subject "queue".
//   - shed_rate: per-tenant sheds per second > Threshold (default 1).
//   - slow_jobs: slow-job profile captures per second > Threshold
//     (default 0). Subject "perfmon".
//
// Rate kinds compare counter deltas between consecutive evaluations; the
// first evaluation only establishes the baseline.
type Rule struct {
	// Name identifies the rule; unique within a config. Burn-rate rules
	// emit per-pair alerts as <name>-fast and <name>-slow.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Severity is free-form operator routing ("warn" default, "page").
	Severity string `json:"severity,omitempty"`
	// ForS is how long (seconds) the condition must hold before the alert
	// leaves pending; 0 fires on the first true evaluation.
	ForS float64 `json:"for_s,omitempty"`
	// KeepFiringS is the flap damper: a firing alert resolves only after
	// this many seconds of consecutively clear evaluations.
	KeepFiringS float64 `json:"keep_firing_s,omitempty"`
	// Tenant restricts a burn_rate/shed_rate rule to one tenant; empty
	// covers all.
	Tenant string `json:"tenant,omitempty"`

	// Threshold's unit depends on Kind; see above.
	Threshold float64 `json:"threshold,omitempty"`

	// burn_rate knobs. Objective is the SLO target in (0,1), e.g. 0.99.
	// FastBurn/SlowBurn are the pair factors; 0 keeps the default, a
	// negative value disables that pair. Window fields are seconds.
	Objective  float64 `json:"objective,omitempty"`
	FastBurn   float64 `json:"fast_burn,omitempty"`
	SlowBurn   float64 `json:"slow_burn,omitempty"`
	FastShortS float64 `json:"fast_short_s,omitempty"`
	FastLongS  float64 `json:"fast_long_s,omitempty"`
	SlowShortS float64 `json:"slow_short_s,omitempty"`
	SlowLongS  float64 `json:"slow_long_s,omitempty"`
}

// forDur / keepDur are the rule's durations as time.Durations.
func (r *Rule) forDur() time.Duration  { return time.Duration(r.ForS * float64(time.Second)) }
func (r *Rule) keepDur() time.Duration { return time.Duration(r.KeepFiringS * float64(time.Second)) }

func (r *Rule) fastWindows() (short, long time.Duration) {
	return time.Duration(r.FastShortS) * time.Second, time.Duration(r.FastLongS) * time.Second
}

func (r *Rule) slowWindows() (short, long time.Duration) {
	return time.Duration(r.SlowShortS) * time.Second, time.Duration(r.SlowLongS) * time.Second
}

// RulesConfig is the -alert-rules file: evaluation cadence plus rules.
type RulesConfig struct {
	// IntervalMs spaces evaluation passes; default 5000.
	IntervalMs int64  `json:"interval_ms,omitempty"`
	Rules      []Rule `json:"rules"`
}

// Interval is the evaluation cadence with the default applied.
func (c RulesConfig) Interval() time.Duration {
	if c.IntervalMs <= 0 {
		return 5 * time.Second
	}
	return time.Duration(c.IntervalMs) * time.Millisecond
}

var ruleKinds = map[string]bool{
	KindBurnRate:        true,
	KindQueueSaturation: true,
	KindShedRate:        true,
	KindSlowJobs:        true,
}

// Validate checks the config and fills per-kind defaults in place.
func (c *RulesConfig) Validate() error {
	if len(c.Rules) == 0 {
		return fmt.Errorf("health: no rules configured")
	}
	seen := make(map[string]bool, len(c.Rules))
	for i := range c.Rules {
		r := &c.Rules[i]
		if r.Name == "" {
			return fmt.Errorf("health: rule %d has no name", i)
		}
		if strings.ContainsAny(r.Name, "\"\\\n") {
			return fmt.Errorf("health: rule %q: name may not contain quotes or newlines", r.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("health: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		if !ruleKinds[r.Kind] {
			return fmt.Errorf("health: rule %q: unknown kind %q", r.Name, r.Kind)
		}
		if r.Severity == "" {
			r.Severity = "warn"
		}
		if r.ForS < 0 || r.KeepFiringS < 0 {
			return fmt.Errorf("health: rule %q: negative duration", r.Name)
		}
		switch r.Kind {
		case KindBurnRate:
			if r.Objective <= 0 || r.Objective >= 1 {
				return fmt.Errorf("health: rule %q: objective must be in (0,1), got %g", r.Name, r.Objective)
			}
			if r.FastBurn == 0 {
				r.FastBurn = defaultFastBurn
			}
			if r.SlowBurn == 0 {
				r.SlowBurn = defaultSlowBurn
			}
			for _, w := range []float64{r.FastShortS, r.FastLongS, r.SlowShortS, r.SlowLongS} {
				if w < 0 || w > MaxBurnWindow.Seconds() {
					return fmt.Errorf("health: rule %q: burn-rate window %gs outside [0, %gs]",
						r.Name, w, MaxBurnWindow.Seconds())
				}
			}
			if r.FastShortS == 0 {
				r.FastShortS = defaultFastShortS
			}
			if r.FastLongS == 0 {
				r.FastLongS = defaultFastLongS
			}
			if r.SlowShortS == 0 {
				r.SlowShortS = defaultSlowShortS
			}
			if r.SlowLongS == 0 {
				r.SlowLongS = defaultSlowLongS
			}
			if r.FastShortS > r.FastLongS || r.SlowShortS > r.SlowLongS {
				return fmt.Errorf("health: rule %q: a pair's short window must not exceed its long window", r.Name)
			}
		case KindQueueSaturation:
			if r.Threshold == 0 {
				r.Threshold = 0.9
			}
			if r.Threshold < 0 || r.Threshold > 1 {
				return fmt.Errorf("health: rule %q: saturation threshold must be in [0,1], got %g", r.Name, r.Threshold)
			}
		case KindShedRate:
			if r.Threshold == 0 {
				r.Threshold = 1
			}
			if r.Threshold < 0 {
				return fmt.Errorf("health: rule %q: negative threshold", r.Name)
			}
		case KindSlowJobs:
			if r.Threshold < 0 {
				return fmt.Errorf("health: rule %q: negative threshold", r.Name)
			}
		}
	}
	return nil
}

// ParseRules decodes and validates a rules config; unknown fields are
// rejected so typos fail loudly at startup.
func ParseRules(data []byte) (RulesConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c RulesConfig
	if err := dec.Decode(&c); err != nil {
		return RulesConfig{}, fmt.Errorf("health: parse rules: %w", err)
	}
	if err := c.Validate(); err != nil {
		return RulesConfig{}, err
	}
	return c, nil
}

// LoadRules reads a rules config from a file.
func LoadRules(path string) (RulesConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RulesConfig{}, fmt.Errorf("health: %w", err)
	}
	return ParseRules(data)
}

// DefaultRules is the built-in rule set used when -alert-rules is not
// given: SRE-workbook burn rates on every tenant with a deadline, plus
// structural rules over each signal plane. Rules whose signal plane is
// absent (no tenants) simply never produce violations.
func DefaultRules() RulesConfig {
	c := RulesConfig{
		IntervalMs: 5000,
		Rules: []Rule{
			{Name: "slo-burn", Kind: KindBurnRate, Severity: "page",
				Objective: 0.99, KeepFiringS: 60},
			{Name: "queue-saturation", Kind: KindQueueSaturation, Severity: "warn",
				ForS: 10, KeepFiringS: 30},
			{Name: "shed-rate", Kind: KindShedRate, Severity: "warn",
				ForS: 10, KeepFiringS: 30},
			{Name: "slow-jobs", Kind: KindSlowJobs, Severity: "warn",
				KeepFiringS: 60},
		},
	}
	if err := c.Validate(); err != nil {
		panic("health: default rules invalid: " + err.Error())
	}
	return c
}
