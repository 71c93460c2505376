package health

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/metrics"
)

// fakeClock drives deterministic evaluation.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// burnSignals builds a tenant whose windowed attainment is controlled by
// the test through a pointer.
func burnSignals(attainment *float64) Signals {
	return Signals{
		Tenants: func() []TenantStat {
			return []TenantStat{{Name: "interactive", DeadlineMs: 50}}
		},
		TenantSLO: func(tenant string, w time.Duration) (uint64, uint64, bool) {
			if tenant != "interactive" {
				return 0, 0, false
			}
			// 1000 samples at the requested attainment, every window.
			return uint64(*attainment * 1000), 1000, true
		},
	}
}

func burnRules(forS, keepS float64) RulesConfig {
	return RulesConfig{Rules: []Rule{{
		Name: "slo-burn", Kind: KindBurnRate, Severity: "page",
		Objective: 0.99, ForS: forS, KeepFiringS: keepS,
	}}}
}

func TestBurnRateLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	att := 1.0
	ex := NewExemplars()
	ex.Observe("tenant:interactive", "j-0001", "deadbeefdeadbeefdeadbeefdeadbeef")
	e, err := NewEngine(Config{
		Rules: burnRules(10, 10), Signals: burnSignals(&att),
		Exemplars: ex, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy: no alerts.
	e.EvalOnce()
	if got := e.Alerts(); len(got) != 0 {
		t.Fatalf("healthy alerts = %+v, want none", got)
	}

	// Attainment collapses: burn = (1-0.5)/0.01 = 50 > both 14 and 3 →
	// fast and slow pairs both go pending.
	att = 0.5
	e.EvalOnce()
	alerts := e.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("pending alerts = %d, want 2 (fast+slow)", len(alerts))
	}
	for _, a := range alerts {
		if a.State != StatePending {
			t.Fatalf("alert %s state = %s, want pending", a.Rule, a.State)
		}
		if a.Subject != "interactive" {
			t.Fatalf("alert subject = %q, want interactive", a.Subject)
		}
	}

	// for_s=10 not yet elapsed: still pending after 5s.
	clk.advance(5 * time.Second)
	e.EvalOnce()
	if a := e.Alerts()[0]; a.State != StatePending {
		t.Fatalf("state after 5s = %s, want pending", a.State)
	}

	// 10s held → firing, with the exemplar annotations attached.
	clk.advance(5 * time.Second)
	e.EvalOnce()
	var fast AlertView
	for _, a := range e.Alerts() {
		if a.State != StateFiring {
			t.Fatalf("alert %s state = %s, want firing", a.Rule, a.State)
		}
		if a.Rule == "slo-burn-fast" {
			fast = a
		}
	}
	if fast.ID == "" {
		t.Fatal("no slo-burn-fast alert")
	}
	if fast.Annotations["exemplar_trace"] != "deadbeefdeadbeefdeadbeefdeadbeef" {
		t.Fatalf("exemplar_trace = %q", fast.Annotations["exemplar_trace"])
	}
	if fast.Annotations["trace_url"] != "/v1/jobs/j-0001/trace" {
		t.Fatalf("trace_url = %q", fast.Annotations["trace_url"])
	}
	if fast.FiredAt == nil || !fast.FiredAt.Equal(clk.t) {
		t.Fatalf("fired_at = %v, want %v", fast.FiredAt, clk.t)
	}

	// Recovery: condition clears but keep_firing_s=10 damps resolution.
	att = 1.0
	clk.advance(2 * time.Second)
	e.EvalOnce()
	if a, ok := e.Alert(fast.ID); !ok || a.State != StateFiring {
		t.Fatalf("alert during damper = %+v ok=%v, want still firing", a, ok)
	}

	// Damper elapses → resolved, retrievable by id from history.
	clk.advance(10 * time.Second)
	e.EvalOnce()
	a, ok := e.Alert(fast.ID)
	if !ok || a.State != StateResolved {
		t.Fatalf("post-damper alert = %+v ok=%v, want resolved", a, ok)
	}
	if a.ResolvedAt == nil || !a.ResolvedAt.Equal(clk.t) {
		t.Fatalf("resolved_at = %v, want %v", a.ResolvedAt, clk.t)
	}
	// Resolved history is part of Alerts().
	views := e.Alerts()
	if len(views) != 2 {
		t.Fatalf("alert history = %d entries, want 2 resolved", len(views))
	}
}

func TestPendingFlapDrops(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	att := 0.5
	e, _ := NewEngine(Config{Rules: burnRules(30, 0), Signals: burnSignals(&att), Now: clk.now})
	e.EvalOnce()
	if len(e.Alerts()) != 2 {
		t.Fatal("expected pending alerts")
	}
	// Clears before for_s → dropped entirely, never fires.
	att = 1.0
	clk.advance(5 * time.Second)
	e.EvalOnce()
	if got := e.Alerts(); len(got) != 0 {
		t.Fatalf("flapped alerts still present: %+v", got)
	}
	e.mu.Lock()
	flaps, fired := e.flapsTotal, e.firedTotal
	e.mu.Unlock()
	if flaps != 2 || fired != 0 {
		t.Fatalf("flaps=%d fired=%d, want 2/0", flaps, fired)
	}
}

func TestDedupByRuleSubject(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	att := 0.5
	e, _ := NewEngine(Config{Rules: burnRules(0, 0), Signals: burnSignals(&att), Now: clk.now})
	for i := 0; i < 5; i++ {
		e.EvalOnce()
		clk.advance(time.Second)
	}
	// Five violating evals of the same rule+subject stay two alerts.
	if got := e.Alerts(); len(got) != 2 {
		t.Fatalf("alerts after repeat evals = %d, want 2", len(got))
	}
}

func TestReloadKeepsFiringState(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	att := 0.5
	e, _ := NewEngine(Config{Rules: burnRules(0, 300), Signals: burnSignals(&att), Now: clk.now})
	e.EvalOnce()
	before := e.Alerts()
	if len(before) != 2 || before[0].State != StateFiring {
		t.Fatalf("setup: %+v", before)
	}

	// Reload keeping the rule (tweaked objective): firing state survives,
	// same alert ids.
	rc := burnRules(0, 300)
	rc.Rules[0].Objective = 0.95
	if err := e.Reload(rc); err != nil {
		t.Fatal(err)
	}
	after := e.Alerts()
	if len(after) != 2 || after[0].ID != before[0].ID || after[0].State != StateFiring {
		t.Fatalf("reload lost firing state: before=%+v after=%+v", before, after)
	}

	// Reload dropping the rule: firing alerts resolve with a reason.
	if err := e.Reload(RulesConfig{Rules: []Rule{{
		Name: "other", Kind: KindQueueSaturation,
	}}}); err != nil {
		t.Fatal(err)
	}
	for _, a := range e.Alerts() {
		if a.State != StateResolved {
			t.Fatalf("alert %s after rule removal = %s, want resolved", a.Rule, a.State)
		}
		if a.Annotations["resolved_reason"] == "" {
			t.Fatal("removed-rule resolution carries no reason annotation")
		}
	}
}

func TestStructuralRules(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	qs := QueueStat{Depth: 95, Cap: 100}
	sheds := uint64(0)
	captures := uint64(0)
	e, err := NewEngine(Config{
		Rules: RulesConfig{Rules: []Rule{
			{Name: "sat", Kind: KindQueueSaturation},
			{Name: "shed", Kind: KindShedRate, Threshold: 0.5},
			{Name: "slow", Kind: KindSlowJobs},
		}},
		Signals: Signals{
			Queue: func() (QueueStat, bool) { return qs, true },
			Tenants: func() []TenantStat {
				return []TenantStat{{Name: "batch", Sheds: sheds}}
			},
			SlowCaptures: func() (uint64, bool) { return captures, true },
		},
		Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// First pass: saturation fires (95% ≥ 90%); rate rules only baseline.
	e.EvalOnce()
	byRule := func() map[string]AlertView {
		m := make(map[string]AlertView)
		for _, a := range e.Alerts() {
			if a.State != StateResolved {
				m[a.Rule] = a
			}
		}
		return m
	}
	m := byRule()
	if len(m) != 1 || m["sat"].Subject != "queue" {
		t.Fatalf("first pass alerts = %+v, want only sat", m)
	}

	// Second pass: counters grew.
	clk.advance(10 * time.Second)
	sheds, captures = 20, 2
	e.EvalOnce()
	m = byRule()
	for _, want := range []struct{ rule, subject string }{
		{"sat", "queue"},
		{"shed", "batch"},
		{"slow", "perfmon"},
	} {
		a, ok := m[want.rule]
		if !ok || a.Subject != want.subject {
			t.Fatalf("rule %s: got %+v (ok=%v), want subject %s", want.rule, a, ok, want.subject)
		}
	}
	if m["shed"].Value != 2 { // 20 sheds / 10 s
		t.Fatalf("shed rate = %g, want 2", m["shed"].Value)
	}

	// Recovery: the queue empties and the counters stop growing.
	qs.Depth = 0
	sheds, captures = 20, 2 // no growth
	clk.advance(10 * time.Second)
	e.EvalOnce()
	m = byRule()
	if len(m) != 0 {
		t.Fatalf("recovered pass still has %+v", m)
	}
}

func TestRulesParsing(t *testing.T) {
	for _, tc := range []struct {
		what, doc string
		rule      string // when set, the error must name this rule
	}{
		{"unknown kind", `{"rules":[{"name":"x","kind":"nope"}]}`, ""},
		{"duplicate names", `{"rules":[{"name":"a","kind":"slow_jobs"},{"name":"a","kind":"slow_jobs"}]}`, ""},
		{"objective outside (0,1)", `{"rules":[{"name":"b","kind":"burn_rate","objective":1.5}]}`, ""},
		{"unknown field", `{"rules":[{"name":"b","kind":"burn_rate","objective":0.99,"surprise":1}]}`, ""},
		{"negative window", `{"rules":[{"name":"neg","kind":"burn_rate","objective":0.99,"fast_short_s":-5}]}`, "neg"},
		{"window past the SLO ring", `{"rules":[{"name":"long","kind":"burn_rate","objective":0.99,"slow_long_s":3600}]}`, "long"},
	} {
		_, err := ParseRules([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s accepted", tc.what)
		} else if tc.rule != "" && !strings.Contains(err.Error(), `"`+tc.rule+`"`) {
			t.Errorf("%s: error %q does not name rule %q", tc.what, err, tc.rule)
		}
	}
	if _, err := ParseRules([]byte(`{"rules":[{"name":"edge","kind":"burn_rate","objective":0.99,"slow_long_s":2048}]}`)); err != nil {
		t.Fatalf("window at the SLO ring's reach rejected: %v", err)
	}
	c, err := ParseRules([]byte(`{"interval_ms":250,"rules":[{"name":"b","kind":"burn_rate","objective":0.99}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval() != 250*time.Millisecond {
		t.Fatalf("interval = %v", c.Interval())
	}
	r := c.Rules[0]
	if r.FastBurn != 14 || r.SlowBurn != 3 || r.FastShortS != 60 || r.SlowLongS != 1800 {
		t.Fatalf("burn defaults not filled: %+v", r)
	}
	if r.Severity != "warn" {
		t.Fatalf("severity default = %q", r.Severity)
	}
	// The shipped defaults must validate (DefaultRules panics otherwise).
	DefaultRules()
}

func TestWriteProm(t *testing.T) {
	clk := &fakeClock{t: time.Unix(50_000, 0)}
	att := 0.5
	e, _ := NewEngine(Config{Rules: burnRules(0, 0), Signals: burnSignals(&att), Now: clk.now})
	e.EvalOnce()
	var b strings.Builder
	metrics.Write(&b, e.Collect())
	out := b.String()
	for _, want := range []string{
		`womd_alerts{state="firing"} 2`,
		`womd_alerts{state="pending"} 0`,
		`womd_alert_transitions_total{state="firing"} 2`,
		`womd_alert_evaluations_total 1`,
		`womd_alert_flaps_total 0`,
		`womd_alert_firing{rule="slo-burn-fast",subject="interactive"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE never appear without samples: with nothing firing the
	// per-alert family vanishes entirely.
	att = 1.0
	e.EvalOnce()
	b.Reset()
	metrics.Write(&b, e.Collect())
	if strings.Contains(b.String(), "womd_alert_firing") {
		t.Fatalf("womd_alert_firing emitted with no firing alerts:\n%s", b.String())
	}
}

func TestStartStop(t *testing.T) {
	att := 1.0
	e, _ := NewEngine(Config{
		Rules:   RulesConfig{IntervalMs: 1, Rules: burnRules(0, 0).Rules},
		Signals: burnSignals(&att),
	})
	e.Start()
	e.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		e.mu.Lock()
		n := e.evals
		e.mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background loop never evaluated")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	e.Stop()
	e.Stop() // idempotent
}

// TestLoadRulesRejectsRetiredKinds: a rules file still naming the removed
// heartbeat_stale or scrape_errors kinds fails to load with an unknown-kind
// error instead of loading as a rule that can never fire.
func TestLoadRulesRejectsRetiredKinds(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"heartbeat_stale", "scrape_errors"} {
		path := filepath.Join(dir, kind+".json")
		doc := `{"rules":[{"name":"slow","kind":"slow_jobs"},{"name":"retired","kind":"` + kind + `"}]}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRules(path)
		if err == nil || !strings.Contains(err.Error(), `unknown kind "`+kind+`"`) {
			t.Errorf("LoadRules with kind %s: err = %v, want unknown kind", kind, err)
		}
	}
}
