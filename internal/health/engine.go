package health

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// QueueStat is the engine queue's occupancy signal.
type QueueStat struct {
	Depth    int
	Cap      int // 0 = unbounded/unknown; saturation rules skip it
	Draining bool
}

// TenantStat is one tenant's scheduler snapshot, the burn-rate and
// shed-rate subject list.
type TenantStat struct {
	Name       string
	Depth      int
	Sheds      uint64
	DeadlineMs int64 // 0 = no deadline, so no error budget to burn
}

// Signals wires the evaluator to the rest of the process. Every field is
// optional — a nil func means that signal plane is not configured and
// rules over it never produce violations.
type Signals struct {
	// Queue reports engine queue occupancy (queue_saturation).
	Queue func() (QueueStat, bool)
	// Tenants lists scheduler tenants (burn_rate and shed_rate subjects).
	Tenants func() []TenantStat
	// TenantSLO reports a tenant's windowed dequeue outcomes
	// (sched.Scheduler.WindowSLO) — the burn-rate numerator/denominator.
	TenantSLO func(tenant string, window time.Duration) (met, total uint64, ok bool)
	// SlowCaptures is the cumulative slow-job profile capture count
	// (slow_jobs).
	SlowCaptures func() (uint64, bool)
}

// Config configures an Engine.
type Config struct {
	// Rules is the rule set; zero value uses DefaultRules().
	Rules RulesConfig
	// Signals feeds the evaluator; see Signals.
	Signals Signals
	// Exemplars annotates violations with the most recent job/trace seen
	// for the alert's subject; nil selects an empty store.
	Exemplars *Exemplars
	// Logger receives state transitions; nil discards.
	Logger *slog.Logger
	// OnTransition, when non-nil, observes every alert lifecycle
	// transition — to is "pending", "firing", "flapped", or "resolved" —
	// as it happens; womd points it at the history store's alert journal
	// so transitions survive a restart. key is the alert's stable
	// rule+subject identity (the Restore dedup key). Called with the
	// engine's lock held: keep it fast and never call back into the
	// engine.
	OnTransition func(at time.Time, to string, key string, view AlertView)
	// MaxResolved bounds the resolved-alert history; default 64.
	MaxResolved int
	// Now is the clock, a test hook; nil means time.Now.
	Now func() time.Time
}

// counterSample is one prior observation of a cumulative counter, the
// baseline for rate rules.
type counterSample struct {
	v float64
	t time.Time
}

// alert is the internal lifecycle record; AlertView is its wire form.
type alert struct {
	id        string
	rule      string // emitted rule name (burn pairs: <base>-fast/-slow)
	ruleBase  string // config rule name, the Reload survival key
	subject   string
	severity  string
	state     State
	value     float64
	threshold float64
	startedAt time.Time // when the condition first held (pending began)
	firedAt   time.Time
	resolved  time.Time
	lastTrue  time.Time // most recent true evaluation, the damping anchor
	keep      time.Duration
	ann       map[string]string
}

// violation is one rule/subject condition found true by a collect pass.
type violation struct {
	rule      string
	base      string
	subject   string
	severity  string
	value     float64
	threshold float64
	forDur    time.Duration
	keep      time.Duration
	ann       map[string]string
}

func (v violation) key() string { return v.rule + "\x00" + v.subject }

// Engine evaluates rules against live signals on a fixed cadence and
// maintains the alert set.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	rules    []Rule
	interval time.Duration
	now      func() time.Time
	log      *slog.Logger

	seq       uint64
	active    map[string]*alert // keyed rule+subject
	resolvedQ []*alert          // bounded, newest last
	prev      map[string]counterSample

	evals         uint64
	pendingTotal  uint64
	firedTotal    uint64
	resolvedTotal uint64
	flapsTotal    uint64

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewEngine builds an Engine; call Start to begin evaluating, or EvalOnce
// for deterministic manual passes (tests). Invalid rules return an error.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Rules.Rules) == 0 {
		cfg.Rules = DefaultRules()
	} else if err := cfg.Rules.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxResolved <= 0 {
		cfg.MaxResolved = 64
	}
	if cfg.Exemplars == nil {
		cfg.Exemplars = NewExemplars()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	return &Engine{
		cfg:      cfg,
		rules:    cfg.Rules.Rules,
		interval: cfg.Rules.Interval(),
		now:      now,
		log:      log,
		active:   make(map[string]*alert),
		prev:     make(map[string]counterSample),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Start launches the evaluation loop. No-op if already started.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	interval := e.interval
	e.mu.Unlock()
	go func() {
		defer close(e.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.EvalOnce()
			}
		}
	}()
}

// Stop halts the evaluation loop. No-op if never started.
func (e *Engine) Stop() {
	e.mu.Lock()
	started := e.started
	e.started = false
	e.mu.Unlock()
	if !started {
		return
	}
	close(e.stop)
	<-e.done
}

// EvalOnce runs one evaluation pass: collect violations from every rule,
// then advance the alert state machine. Safe to call concurrently with
// the background loop (tests drive it directly).
func (e *Engine) EvalOnce() {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	e.applyLocked(now, e.collectLocked(now))
	e.evals++
}

// Reload swaps the rule set. Firing alerts whose rule survives (by name)
// keep their state and history; alerts whose rule disappeared are
// resolved (firing) or dropped (pending). The evaluation cadence is not
// changed by a reload — restart womd to change interval_ms.
func (e *Engine) Reload(rc RulesConfig) error {
	if err := rc.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	keep := make(map[string]bool, len(rc.Rules))
	for _, r := range rc.Rules {
		keep[r.Name] = true
	}
	now := e.now()
	for key, a := range e.active {
		if keep[a.ruleBase] {
			continue
		}
		if a.state == StateFiring {
			a.annotate("resolved_reason", "rule removed by reload")
			e.resolveLocked(now, key, a)
		} else {
			delete(e.active, key)
		}
	}
	e.rules = rc.Rules
	return nil
}

// Restore reinstalls pending and firing alerts journaled by a previous
// process, so a restart does not silently drop active incidents while
// the evaluator rebuilds its windows. Views whose rule no longer exists
// in the current rule set are skipped, as are keys already active. The
// id sequence continues past the largest restored id so new alerts never
// collide with journaled ones. Restored alerts carry a restored=true
// annotation and behave exactly like live ones: the next evaluation pass
// either sustains them (condition still true, e.g. from backfilled SLO
// windows) or walks them through flap/keep-firing damping. Returns the
// number restored.
func (e *Engine) Restore(views []AlertView) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	byName := make(map[string]*Rule, len(e.rules))
	for i := range e.rules {
		byName[e.rules[i].Name] = &e.rules[i]
	}
	restored := 0
	for _, v := range views {
		if v.State != StatePending && v.State != StateFiring {
			continue
		}
		base := v.RuleBase
		if base == "" {
			base = v.Rule
		}
		r, ok := byName[base]
		if !ok {
			e.log.Info("alert not restored: rule gone", "alert", v.ID, "rule", v.Rule)
			continue
		}
		key := v.Rule + "\x00" + v.Subject
		if _, exists := e.active[key]; exists {
			continue
		}
		a := &alert{
			id:        v.ID,
			rule:      v.Rule,
			ruleBase:  base,
			subject:   v.Subject,
			severity:  v.Severity,
			state:     v.State,
			value:     v.Value,
			threshold: v.Threshold,
			startedAt: v.StartedAt,
			lastTrue:  now, // damping restarts from the restore instant
			keep:      r.keepDur(),
		}
		if v.FiredAt != nil {
			a.firedAt = *v.FiredAt
		}
		for k, val := range v.Annotations {
			a.annotate(k, val)
		}
		a.annotate("restored", "true")
		e.active[key] = a
		var n uint64
		if _, err := fmt.Sscanf(v.ID, "al-%d", &n); err == nil && n > e.seq {
			e.seq = n
		}
		restored++
		e.log.Info("alert restored", "alert", a.id, "rule", a.rule,
			"subject", a.subject, "state", a.state)
	}
	return restored
}

func (a *alert) annotate(k, v string) {
	if a.ann == nil {
		a.ann = make(map[string]string, 4)
	}
	a.ann[k] = v
}

// collectLocked evaluates every rule against the current signals.
func (e *Engine) collectLocked(now time.Time) []violation {
	var out []violation
	for i := range e.rules {
		r := &e.rules[i]
		switch r.Kind {
		case KindBurnRate:
			out = e.burnRate(out, r)
		case KindQueueSaturation:
			out = e.queueSaturation(out, r)
		case KindShedRate:
			out = e.shedRate(out, r, now)
		case KindSlowJobs:
			out = e.counterRateRule(out, r, now, e.cfg.Signals.SlowCaptures,
				"perfmon", "slow-job verdicts are being captured",
				"captures/s", []string{"slow", "service"})
		}
	}
	return out
}

func (e *Engine) burnRate(out []violation, r *Rule) []violation {
	sig := e.cfg.Signals
	if sig.Tenants == nil || sig.TenantSLO == nil {
		return out
	}
	budget := 1 - r.Objective
	for _, t := range sig.Tenants() {
		if r.Tenant != "" && r.Tenant != t.Name {
			continue
		}
		if t.DeadlineMs <= 0 {
			continue
		}
		burn := func(w time.Duration) (float64, bool) {
			met, total, ok := sig.TenantSLO(t.Name, w)
			if !ok || total == 0 {
				return 0, ok
			}
			return (1 - float64(met)/float64(total)) / budget, true
		}
		pair := func(short, long time.Duration, factor float64, label string) {
			if factor <= 0 {
				return
			}
			bs, okS := burn(short)
			bl, okL := burn(long)
			if !okS || !okL || bs <= factor || bl <= factor {
				return
			}
			v := violation{
				rule:      r.Name + "-" + label,
				base:      r.Name,
				subject:   t.Name,
				severity:  r.Severity,
				value:     min(bs, bl),
				threshold: factor,
				forDur:    r.forDur(),
				keep:      r.keepDur(),
				ann: map[string]string{
					"summary": fmt.Sprintf(
						"tenant %s is burning its error budget at %.1fx/%.1fx (%s/%s, objective %g)",
						t.Name, bs, bl, short, long, r.Objective),
					"pair": label,
				},
			}
			e.annotateExemplar(v.ann, "tenant:"+t.Name, "shed:tenant:"+t.Name, "service")
			out = append(out, v)
		}
		fs, fl := r.fastWindows()
		ss, sl := r.slowWindows()
		pair(fs, fl, r.FastBurn, "fast")
		pair(ss, sl, r.SlowBurn, "slow")
	}
	return out
}

func (e *Engine) queueSaturation(out []violation, r *Rule) []violation {
	if e.cfg.Signals.Queue == nil {
		return out
	}
	qs, ok := e.cfg.Signals.Queue()
	if !ok || qs.Cap <= 0 {
		return out
	}
	frac := float64(qs.Depth) / float64(qs.Cap)
	if frac < r.Threshold {
		return out
	}
	v := violation{
		rule: r.Name, base: r.Name, subject: "queue",
		severity: r.Severity, value: frac, threshold: r.Threshold,
		forDur: r.forDur(), keep: r.keepDur(),
		ann: map[string]string{
			"summary": fmt.Sprintf("job queue %d/%d (%.0f%% of capacity)",
				qs.Depth, qs.Cap, frac*100),
		},
	}
	e.annotateExemplar(v.ann, "shed", "service")
	return append(out, v)
}

func (e *Engine) shedRate(out []violation, r *Rule, now time.Time) []violation {
	if e.cfg.Signals.Tenants == nil {
		return out
	}
	for _, t := range e.cfg.Signals.Tenants() {
		if r.Tenant != "" && r.Tenant != t.Name {
			continue
		}
		rate, ok := e.counterRate("shed\x00"+t.Name, float64(t.Sheds), now)
		if !ok || rate <= r.Threshold {
			continue
		}
		v := violation{
			rule: r.Name, base: r.Name, subject: t.Name,
			severity: r.Severity, value: rate, threshold: r.Threshold,
			forDur: r.forDur(), keep: r.keepDur(),
			ann: map[string]string{
				"summary": fmt.Sprintf("tenant %s shedding %.1f jobs/s", t.Name, rate),
			},
		}
		e.annotateExemplar(v.ann, "shed:tenant:"+t.Name, "shed", "service")
		out = append(out, v)
	}
	return out
}

// counterRateRule handles the single-subject cumulative-counter kinds.
func (e *Engine) counterRateRule(out []violation, r *Rule, now time.Time,
	read func() (uint64, bool), subject, what, unit string, exemplarKeys []string) []violation {
	if read == nil {
		return out
	}
	val, ok := read()
	if !ok {
		return out
	}
	rate, ok := e.counterRate(r.Kind+"\x00"+subject, float64(val), now)
	if !ok || rate <= r.Threshold {
		return out
	}
	v := violation{
		rule: r.Name, base: r.Name, subject: subject,
		severity: r.Severity, value: rate, threshold: r.Threshold,
		forDur: r.forDur(), keep: r.keepDur(),
		ann: map[string]string{
			"summary": fmt.Sprintf("%s (%.2f %s)", what, rate, unit),
		},
	}
	if exemplarKeys == nil {
		exemplarKeys = []string{"service"}
	}
	e.annotateExemplar(v.ann, exemplarKeys...)
	return append(out, v)
}

// counterRate turns consecutive observations of a cumulative counter into
// a per-second rate. The first observation (or a counter reset) only
// records the baseline and reports ok=false.
func (e *Engine) counterRate(key string, val float64, now time.Time) (float64, bool) {
	prev, seen := e.prev[key]
	e.prev[key] = counterSample{v: val, t: now}
	if !seen || !now.After(prev.t) || val < prev.v {
		return 0, false
	}
	return (val - prev.v) / now.Sub(prev.t).Seconds(), true
}

// annotateExemplar attaches the first exemplar found under keys: the
// job/trace an operator should look at first.
func (e *Engine) annotateExemplar(ann map[string]string, keys ...string) {
	for _, k := range keys {
		sample, ok := e.cfg.Exemplars.Get(k)
		if !ok {
			continue
		}
		if sample.TraceID != "" {
			ann["exemplar_trace"] = sample.TraceID
		}
		if sample.JobID != "" {
			ann["exemplar_job"] = sample.JobID
			ann["trace_url"] = "/v1/jobs/" + sample.JobID + "/trace"
		}
		return
	}
}

// applyLocked advances the state machine: violations seen this pass
// create or sustain alerts; active alerts not seen either flap out
// (pending) or ride their keep_firing damper toward resolution (firing).
func (e *Engine) applyLocked(now time.Time, violations []violation) {
	seen := make(map[string]bool, len(violations))
	for _, v := range violations {
		key := v.key()
		seen[key] = true
		a, ok := e.active[key]
		if !ok {
			e.seq++
			a = &alert{
				id:        fmt.Sprintf("al-%06d", e.seq),
				rule:      v.rule,
				ruleBase:  v.base,
				subject:   v.subject,
				severity:  v.severity,
				state:     StatePending,
				startedAt: now,
			}
			e.active[key] = a
			e.pendingTotal++
			e.log.Info("alert pending", "alert", a.id, "rule", a.rule, "subject", a.subject)
			e.notifyLocked(now, "pending", key, a)
		}
		a.value = v.value
		a.threshold = v.threshold
		a.severity = v.severity
		a.keep = v.keep
		a.lastTrue = now
		for k, val := range v.ann {
			a.annotate(k, val)
		}
		if a.state == StatePending && now.Sub(a.startedAt) >= v.forDur {
			a.state = StateFiring
			a.firedAt = now
			e.firedTotal++
			e.log.Warn("alert firing", "alert", a.id, "rule", a.rule,
				"subject", a.subject, "severity", a.severity, "value", a.value)
			e.notifyLocked(now, "firing", key, a)
		}
	}
	for key, a := range e.active {
		if seen[key] {
			continue
		}
		switch a.state {
		case StatePending:
			// Condition cleared before for_s elapsed: a flap, not an alert.
			delete(e.active, key)
			e.flapsTotal++
			e.log.Info("alert flapped", "alert", a.id, "rule", a.rule, "subject", a.subject)
			e.notifyLocked(now, "flapped", key, a)
		case StateFiring:
			if now.Sub(a.lastTrue) >= a.keep {
				e.resolveLocked(now, key, a)
			}
		}
	}
}

// resolveLocked retires one firing alert into the bounded history.
func (e *Engine) resolveLocked(now time.Time, key string, a *alert) {
	delete(e.active, key)
	a.state = StateResolved
	a.resolved = now
	e.resolvedTotal++
	e.resolvedQ = append(e.resolvedQ, a)
	if over := len(e.resolvedQ) - e.cfg.MaxResolved; over > 0 {
		e.resolvedQ = append(e.resolvedQ[:0], e.resolvedQ[over:]...)
	}
	e.log.Info("alert resolved", "alert", a.id, "rule", a.rule, "subject", a.subject,
		"after", now.Sub(a.firedAt).Round(time.Millisecond))
	e.notifyLocked(now, "resolved", key, a)
}

// notifyLocked reports one lifecycle transition to the configured
// observer.
func (e *Engine) notifyLocked(at time.Time, to, key string, a *alert) {
	if e.cfg.OnTransition == nil {
		return
	}
	e.cfg.OnTransition(at, to, key, a.view())
}

// AlertView is an alert's wire form in GET /v1/alerts.
type AlertView struct {
	ID   string `json:"id"`
	Rule string `json:"rule"`
	// RuleBase is the config rule name behind Rule (burn-rate pairs emit
	// <base>-fast/-slow); Restore uses it to re-derive damping from the
	// current rule set.
	RuleBase  string  `json:"rule_base,omitempty"`
	Subject   string  `json:"subject"`
	Severity  string  `json:"severity"`
	State     State   `json:"state"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// StartedAt is when the condition first held; FiredAt/ResolvedAt are
	// zero until those transitions happen.
	StartedAt  time.Time  `json:"started_at"`
	FiredAt    *time.Time `json:"fired_at,omitempty"`
	ResolvedAt *time.Time `json:"resolved_at,omitempty"`
	// Annotations carry the human summary plus exemplar_job /
	// exemplar_trace / trace_url links into the tracing plane.
	Annotations map[string]string `json:"annotations,omitempty"`
}

func (a *alert) view() AlertView {
	v := AlertView{
		ID:        a.id,
		Rule:      a.rule,
		RuleBase:  a.ruleBase,
		Subject:   a.subject,
		Severity:  a.severity,
		State:     a.state,
		Value:     a.value,
		Threshold: a.threshold,
		StartedAt: a.startedAt,
	}
	if !a.firedAt.IsZero() {
		t := a.firedAt
		v.FiredAt = &t
	}
	if !a.resolved.IsZero() {
		t := a.resolved
		v.ResolvedAt = &t
	}
	if len(a.ann) > 0 {
		v.Annotations = make(map[string]string, len(a.ann))
		for k, val := range a.ann {
			v.Annotations[k] = val
		}
	}
	return v
}

// Alerts snapshots the alert set: firing first, then pending (each group
// by id), then resolved history newest-first.
func (e *Engine) Alerts() []AlertView {
	e.mu.Lock()
	defer e.mu.Unlock()
	var firing, pending []AlertView
	for _, a := range e.active {
		if a.state == StateFiring {
			firing = append(firing, a.view())
		} else {
			pending = append(pending, a.view())
		}
	}
	byID := func(s []AlertView) {
		sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
	}
	byID(firing)
	byID(pending)
	out := append(firing, pending...)
	for i := len(e.resolvedQ) - 1; i >= 0; i-- {
		out = append(out, e.resolvedQ[i].view())
	}
	return out
}

// Alert looks one alert up by id across active and resolved sets.
func (e *Engine) Alert(id string) (AlertView, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.active {
		if a.id == id {
			return a.view(), true
		}
	}
	for _, a := range e.resolvedQ {
		if a.id == id {
			return a.view(), true
		}
	}
	return AlertView{}, false
}
