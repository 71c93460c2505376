package tsdb

import (
	"encoding/json"
	"sort"
	"time"
)

// The alert journal makes the alerting plane restart-durable: every
// lifecycle transition (pending, firing, resolved, flapped) is appended
// to the same segment log as metric history, replayed on open, and the
// latest pending/firing event per rule+subject key is the active set a
// restarted womd rehydrates its health engine from.

// AppendAlertTransition journals one alert lifecycle event. The alert
// body is carried opaquely (the health plane's own JSON view), so the
// store does not couple to its schema. Transitions persist immediately —
// they are rare and each one matters across a restart.
func (db *DB) AppendAlertTransition(at time.Time, to, key string, alert json.RawMessage) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	tr := Transition{At: at, To: to, Key: key, Alert: alert}
	db.applyTransition(tr)
	if db.seg == nil {
		return
	}
	if err := db.appendRecord(record{Kind: "alert", Transition: &tr}, at.UnixMilli()); err != nil {
		db.log.Error("history: persisting alert transition", "err", err)
	}
}

// AlertHistory returns journaled transitions newest-first, bounded by
// limit (0 = all held) and optionally to [from, to] (zero times skip the
// bound).
func (db *DB) AlertHistory(from, to time.Time, limit int) []Transition {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Transition, 0, len(db.transitions))
	for i := len(db.transitions) - 1; i >= 0; i-- {
		tr := db.transitions[i]
		if !from.IsZero() && tr.At.Before(from) {
			continue
		}
		if !to.IsZero() && tr.At.After(to) {
			continue
		}
		out = append(out, tr)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// ActiveAlerts returns the latest pending/firing transition per alert
// key — the set a restarted process should rehydrate. Sorted by key for
// determinism.
func (db *DB) ActiveAlerts() []Transition {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Transition, 0, len(db.activeAlerts))
	for _, tr := range db.activeAlerts {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
