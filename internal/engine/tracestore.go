package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"womcpcm/internal/trace"
)

// StoredTrace is one uploaded trace held in memory for replay jobs.
type StoredTrace struct {
	ID    string `json:"id"`
	Label string `json:"label"`
	Count int    `json:"records"`

	recs []trace.Record
}

// TraceStore keeps uploaded traces for the service, decoded once at upload
// time so replay jobs share the record slice read-only.
type TraceStore struct {
	maxRecords int
	maxTraces  int

	mu     sync.Mutex
	seq    uint64
	traces map[string]*StoredTrace
}

// NewTraceStore bounds uploads to maxRecords per trace and maxTraces held
// at once (0 selects defaults of 4M records and 64 traces).
func NewTraceStore(maxRecords, maxTraces int) *TraceStore {
	if maxRecords <= 0 {
		maxRecords = 4 << 20
	}
	if maxTraces <= 0 {
		maxTraces = 64
	}
	return &TraceStore{
		maxRecords: maxRecords,
		maxTraces:  maxTraces,
		traces:     make(map[string]*StoredTrace),
	}
}

// ErrStoreFull reports the trace-count bound.
var ErrStoreFull = fmt.Errorf("engine: trace store full")

// Put decodes one upload (binary or text format, auto-detected) as a
// stream, validates time ordering, and stores it under a fresh id. size is
// the body's length in bytes, or -1 when unknown (a chunked request): a
// binary upload of known size decodes into one slice presized from it,
// capped at the store's record bound (trace.CollectSized). Malformed or
// oversized input returns an error without storing anything.
func (s *TraceStore) Put(label string, r io.Reader, size int64) (*StoredTrace, error) {
	recs, err := trace.CollectSized(r, size, s.maxRecords)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("engine: empty trace upload")
	}
	if err := trace.Validate(recs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.traces) >= s.maxTraces {
		return nil, fmt.Errorf("%w (max %d)", ErrStoreFull, s.maxTraces)
	}
	s.seq++
	id := fmt.Sprintf("t-%06d", s.seq)
	if label == "" {
		label = id
	}
	st := &StoredTrace{ID: id, Label: label, Count: len(recs), recs: recs}
	s.traces[id] = st
	return st, nil
}

// Get returns a stored trace by id.
func (s *TraceStore) Get(id string) (*StoredTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.traces[id]
	return st, ok
}

// Delete removes a stored trace, reporting whether it existed.
func (s *TraceStore) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.traces[id]
	delete(s.traces, id)
	return ok
}

// List returns the stored traces sorted by id.
func (s *TraceStore) List() []*StoredTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredTrace, 0, len(s.traces))
	for _, st := range s.traces {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Records exposes the decoded records; callers must treat them read-only.
func (t *StoredTrace) Records() []trace.Record { return t.recs }
