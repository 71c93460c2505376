// Package resultstore is the durable memoization layer of the simulation
// service: a crash-safe, content-addressed store for experiment results.
// Results are keyed by a canonical hash of (experiment name, normalized
// sim.Params JSON, schema version) and persisted as one JSON record per
// frame in a seglog segment log. The full index lives in memory and is
// rebuilt by replaying the log on open; a torn tail left by a crash is
// truncated away, keeping every fully-written record. Named baselines —
// flattened numeric snapshots of the store — ride in the same log and feed
// regression detection (womtool regress, womd /v1/compare).
package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"womcpcm/internal/seglog"
	"womcpcm/internal/sim"
)

// Errors the store returns.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("resultstore: store closed")
	// ErrNoBaseline reports an unknown baseline name.
	ErrNoBaseline = errors.New("resultstore: baseline not found")
	// ErrCorrupt reports corruption in a non-final segment, which a crash
	// cannot produce — the store refuses to guess and asks for operator
	// attention instead of silently dropping interior history.
	ErrCorrupt = seglog.ErrCorrupt
)

// Entry is one stored result: the content key, the request that produced
// it, and the result itself. Result.Data round-trips through JSON, so after
// a reopen it holds generic maps rather than the original result structs.
type Entry struct {
	Key        string          `json:"key"`
	Experiment string          `json:"experiment"`
	Schema     string          `json:"schema"`
	Params     json.RawMessage `json:"params"` // canonical JSON
	Result     *sim.Result     `json:"result"`
	WallNs     int64           `json:"wall_ns,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
}

// Summary is the listing shape of an entry (no result body).
type Summary struct {
	Key        string    `json:"key"`
	Experiment string    `json:"experiment"`
	Schema     string    `json:"schema"`
	WallNs     int64     `json:"wall_ns,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
}

// Summary projects the entry for listings.
func (e *Entry) Summary() Summary {
	return Summary{Key: e.Key, Experiment: e.Experiment, Schema: e.Schema,
		WallNs: e.WallNs, CreatedAt: e.CreatedAt}
}

// Baseline pins one named snapshot of the store: every entry's numeric
// metrics, flattened to dotted paths, frozen at pin time. Regression
// checks compare a later store state against these numbers.
type Baseline struct {
	Name      string    `json:"name"`
	Schema    string    `json:"schema"`
	CreatedAt time.Time `json:"created_at"`
	// Metrics maps entry key → metric path → value (see Flatten).
	Metrics map[string]map[string]float64 `json:"metrics"`
	// Experiments maps entry key → experiment name, for readable reports.
	Experiments map[string]string `json:"experiments"`
}

// record is the on-disk payload: exactly one of the two bodies is set.
type record struct {
	Kind     string    `json:"kind"` // "result" or "baseline"
	Entry    *Entry    `json:"entry,omitempty"`
	Baseline *Baseline `json:"baseline,omitempty"`
}

// Options tunes a store. Zero values select production defaults.
type Options struct {
	// SchemaVersion invalidates old keys wholesale when the sim schema
	// changes (default sim.SchemaVersion).
	SchemaVersion string
	// MaxSegmentBytes rotates to a fresh segment past this size
	// (default 64 MiB).
	MaxSegmentBytes int64
	// Sync fsyncs after every append. Off by default: the log tolerates a
	// torn tail, so the worst a crash costs is the records the OS had not
	// flushed — acceptable for a cache, and an order of magnitude faster.
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.SchemaVersion == "" {
		o.SchemaVersion = sim.SchemaVersion
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	return o
}

// Store is the persistent result cache. All methods are safe for concurrent
// use; writes serialize on one append head.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	closed    bool
	entries   map[string]*Entry
	baselines map[string]*Baseline
	seg       *seglog.Log
}

// Open creates dir if needed, replays every segment oldest-first to rebuild
// the index, truncates a torn tail off the final segment, and leaves the
// final segment open for append.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		dir:       dir,
		opts:      opts,
		entries:   make(map[string]*Entry),
		baselines: make(map[string]*Baseline),
	}
	seg, err := seglog.Open(dir, seglog.Config{
		Header:          "WOMRSv1\n",
		Prefix:          "seg-",
		MaxPayload:      64 << 20,
		MaxSegmentBytes: opts.MaxSegmentBytes,
	}, s.replay)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.seg = seg
	return s, nil
}

// replay indexes one replayed record; later records win. An undecodable
// payload is reported to seglog as a damaged frame.
func (s *Store) replay(_ int, payload []byte) error {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return err
	}
	switch {
	case rec.Kind == "result" && rec.Entry != nil:
		s.entries[rec.Entry.Key] = rec.Entry
	case rec.Kind == "baseline" && rec.Baseline != nil:
		s.baselines[rec.Baseline.Name] = rec.Baseline
	}
	// Unknown kinds are skipped, not fatal: a newer writer may add record
	// types an older reader can safely ignore.
	return nil
}

// append encodes one record onto the log, syncing it if Options.Sync.
func (s *Store) append(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: encoding record: %w", err)
	}
	if _, err := s.seg.Append(payload); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if s.opts.Sync {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
	}
	return nil
}

// SchemaVersion returns the schema tag keys are derived under.
func (s *Store) SchemaVersion() string { return s.opts.SchemaVersion }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the entry under key, if present.
func (s *Store) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

// Put persists an entry and indexes it, replacing any previous entry under
// the same key (the log keeps both; replay keeps the newer).
func (s *Store) Put(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("resultstore: entry has no key")
	}
	if e.CreatedAt.IsZero() {
		e.CreatedAt = time.Now().UTC()
	}
	if e.Schema == "" {
		e.Schema = s.opts.SchemaVersion
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.append(record{Kind: "result", Entry: &e}); err != nil {
		return err
	}
	s.entries[e.Key] = &e
	return nil
}

// Entries lists every stored entry sorted by experiment then key, so
// listings are stable across processes and reopens.
func (s *Store) Entries() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len reports the number of distinct result keys held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// PinBaseline snapshots the current store under name: every entry's
// flattened numeric metrics, frozen. Pinning over an existing name
// replaces it.
func (s *Store) PinBaseline(name string) (*Baseline, error) {
	if name == "" {
		return nil, fmt.Errorf("resultstore: baseline needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	b := &Baseline{
		Name:        name,
		Schema:      s.opts.SchemaVersion,
		CreatedAt:   time.Now().UTC(),
		Metrics:     make(map[string]map[string]float64, len(s.entries)),
		Experiments: make(map[string]string, len(s.entries)),
	}
	for key, e := range s.entries {
		m, err := EntryMetrics(e)
		if err != nil {
			return nil, err
		}
		b.Metrics[key] = m
		b.Experiments[key] = e.Experiment
	}
	if err := s.append(record{Kind: "baseline", Baseline: b}); err != nil {
		return nil, err
	}
	s.baselines[name] = b
	return b, nil
}

// Baseline returns a pinned baseline by name.
func (s *Store) Baseline(name string) (*Baseline, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.baselines[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBaseline, name)
	}
	return b, nil
}

// Baselines lists pinned baselines sorted by name.
func (s *Store) Baselines() []*Baseline {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Baseline, 0, len(s.baselines))
	for _, b := range s.baselines {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close flushes and closes the append head. A closed store still serves
// reads from its in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.seg.Close()
}
