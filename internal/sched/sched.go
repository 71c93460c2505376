// Package sched is womd's multi-tenant SLO-aware scheduler: the engine's
// one job queue, between HTTP admission and execution. Without a tenant
// configuration (womd -tenants) the engine runs it with one implicit
// tenant, "default" — weight 1, priority 0, no deadline, no caps — which is
// a FIFO bounded at MaxDepth that sheds with reason "queue_full".
//
// Tenants are named classes with a weight (fair-share ratio), a priority
// (shed order under saturation — lower numbers shed last), an optional
// in-flight cap, an optional queue-wait deadline budget, and an optional
// per-tenant queue depth. Dequeue order is weighted-fair across tenants
// (stride scheduling, so a weight-1 tenant still drains at 1/Σweights of
// the service rate — no starvation) and earliest-deadline-first within a
// tenant (a binary heap on each job's deadline, admission order breaking
// ties).
//
// Load shedding is graduated instead of binary: each tenant sheds when the
// total queued depth crosses its priority rank's threshold — the
// lowest-priority rank sheds at 1/R of MaxDepth, the highest only when the
// queue is actually full (R = number of distinct priorities). A shed
// carries a machine-readable reason and a Retry-After computed from the
// observed drain rate, so clients back off proportionally to the real
// backlog instead of guessing.
//
// The scheduler is payload-agnostic (Item.Payload is opaque; the engine
// queues its jobs there). Reload swaps tenant definitions at runtime (womd
// re-reads the config on SIGHUP) without dropping queued work.
package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxDepth bounds total queued items when Config.MaxDepth is 0.
	DefaultMaxDepth = 256
)

// TenantClass declares one tenant's scheduling contract.
type TenantClass struct {
	// Name identifies the tenant; submissions carry it in
	// JobRequest.Tenant. Required, unique.
	Name string `json:"name"`
	// Weight is the tenant's fair-share ratio (default 1). A tenant with
	// weight w among total weight W receives w/W of dequeues while
	// backlogged.
	Weight int `json:"weight,omitempty"`
	// Priority orders shedding under saturation: 0 is the most important
	// (shed last, only when the queue is full); higher numbers shed at
	// progressively lower occupancy. Default 0.
	Priority int `json:"priority,omitempty"`
	// MaxInflight caps this tenant's concurrently executing jobs;
	// 0 = unlimited. A capped tenant's queued jobs wait without blocking
	// other tenants' dequeues.
	MaxInflight int `json:"max_inflight,omitempty"`
	// DeadlineMs is the queue-wait budget: a job admitted at T should start
	// by T+DeadlineMs. It orders jobs within the tenant (EDF) and defines
	// SLO attainment; 0 = no deadline (admission-ordered, always attained).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// QueueDepth caps this tenant's own queued jobs independently of the
	// global bound; 0 = no per-tenant cap.
	QueueDepth int `json:"queue_depth,omitempty"`
}

func (c TenantClass) withDefaults() TenantClass {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	return c
}

// Config is the tenant scheduling configuration (the -tenants JSON file).
type Config struct {
	// Tenants lists the classes; at least one is required.
	Tenants []TenantClass `json:"tenants"`
	// DefaultTenant receives submissions with no (or an unknown) tenant
	// name; default: the first configured tenant.
	DefaultTenant string `json:"default_tenant,omitempty"`
	// MaxDepth bounds total queued jobs across tenants (default 256). The
	// graduated shed thresholds are fractions of it.
	MaxDepth int `json:"max_depth,omitempty"`
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("sched: config needs at least one tenant")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("sched: tenant with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("sched: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Weight < 0 {
			return fmt.Errorf("sched: tenant %q: negative weight", t.Name)
		}
		if t.Priority < 0 {
			return fmt.Errorf("sched: tenant %q: negative priority", t.Name)
		}
		if t.DeadlineMs < 0 {
			return fmt.Errorf("sched: tenant %q: negative deadline_ms", t.Name)
		}
		if t.MaxInflight < 0 || t.QueueDepth < 0 {
			return fmt.Errorf("sched: tenant %q: negative cap", t.Name)
		}
	}
	if c.DefaultTenant != "" && !seen[c.DefaultTenant] {
		return fmt.Errorf("sched: default_tenant %q is not a configured tenant", c.DefaultTenant)
	}
	if c.MaxDepth < 0 {
		return fmt.Errorf("sched: negative max_depth")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.DefaultTenant == "" && len(c.Tenants) > 0 {
		c.DefaultTenant = c.Tenants[0].Name
	}
	for i, t := range c.Tenants {
		c.Tenants[i] = t.withDefaults()
	}
	return c
}

// ParseConfig decodes and validates a tenant configuration document.
// Unknown fields are rejected — a typoed "wieght" must not silently become
// the default.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("sched: decoding tenant config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c.withDefaults(), nil
}

// LoadConfig reads and parses the -tenants file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("sched: reading tenant config: %w", err)
	}
	return ParseConfig(data)
}

// shedThresholds maps each tenant name to the total queued depth at which
// its submissions are shed: rank the distinct priorities best (lowest
// number) to worst; the worst rank sheds at MaxDepth/R, each better rank
// one R-th later, the best only at MaxDepth itself.
func shedThresholds(cfg Config) map[string]int {
	prios := make([]int, 0, len(cfg.Tenants))
	seen := make(map[int]bool)
	for _, t := range cfg.Tenants {
		if !seen[t.Priority] {
			seen[t.Priority] = true
			prios = append(prios, t.Priority)
		}
	}
	sort.Ints(prios) // ascending: best priority first
	rank := make(map[int]int, len(prios))
	for i, p := range prios {
		rank[p] = i
	}
	r := len(prios)
	out := make(map[string]int, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		frac := float64(r-rank[t.Priority]) / float64(r)
		th := int(frac * float64(cfg.MaxDepth))
		if th < 1 {
			th = 1
		}
		out[t.Name] = th
	}
	return out
}
