package perfmon

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultMaxCaptures bounds the on-disk profile store: beyond it the oldest
// capture pair is evicted, so a pathological workload cannot fill the disk.
const DefaultMaxCaptures = 32

// DefaultCPUProfileDuration is how long a slow-job CPU capture samples.
const DefaultCPUProfileDuration = 500 * time.Millisecond

// Capture describes one stored profile file.
type Capture struct {
	// JobID is the job the capture was taken for.
	JobID string `json:"job_id"`
	// TraceID is the job's trace id (internal/span), so a
	// profile can be joined back to its trace; empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	// Reason says why ("slow", "deadline").
	Reason string `json:"reason"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// File is the file name inside the store directory; fetch it via
	// GET /v1/jobs/{id}/profiles/{file}.
	File string `json:"file"`
	// Size is the file size in bytes.
	Size int64 `json:"size"`
	// CreatedAt is the capture time.
	CreatedAt time.Time `json:"created_at"`
}

// ProfileStore captures pprof profiles for slow jobs into a bounded
// directory. Captures serialize on one mutex — CPU profiling is a global
// runtime facility, so concurrent captures are impossible anyway — and the
// store evicts oldest-first past its bound.
type ProfileStore struct {
	dir string
	max int

	mu       sync.Mutex
	captures []Capture // oldest first
	seq      int
	busy     bool
}

// NewProfileStore opens (creating if needed) a profile directory.
// maxCaptures ≤ 0 selects DefaultMaxCaptures.
func NewProfileStore(dir string, maxCaptures int) (*ProfileStore, error) {
	if maxCaptures <= 0 {
		maxCaptures = DefaultMaxCaptures
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("perfmon: profile store: %w", err)
	}
	return &ProfileStore{dir: dir, max: maxCaptures}, nil
}

// Dir returns the store directory.
func (ps *ProfileStore) Dir() string { return ps.dir }

// Capture records a CPU profile (sampling for cpuDur, ≤ 0 selecting the
// default) and a heap profile for jobID, returning the stored captures.
// traceID, when non-empty, stamps the captures with the job's trace so
// they join back to its distributed trace. If another capture is in
// flight the call returns ErrBusy without blocking the caller for the
// sampling duration.
func (ps *ProfileStore) Capture(jobID, traceID, reason string, cpuDur time.Duration) ([]Capture, error) {
	if cpuDur <= 0 {
		cpuDur = DefaultCPUProfileDuration
	}
	ps.mu.Lock()
	if ps.busy {
		ps.mu.Unlock()
		return nil, ErrBusy
	}
	ps.busy = true
	ps.seq++
	seq := ps.seq
	ps.mu.Unlock()
	defer func() {
		ps.mu.Lock()
		ps.busy = false
		ps.mu.Unlock()
	}()

	var out []Capture
	cpuFile := fmt.Sprintf("%s-%d-cpu.pprof", sanitizeID(jobID), seq)
	if c, err := ps.captureCPU(jobID, traceID, reason, cpuFile, cpuDur); err == nil {
		out = append(out, c)
	} else {
		return nil, err
	}
	heapFile := fmt.Sprintf("%s-%d-heap.pprof", sanitizeID(jobID), seq)
	if c, err := ps.captureHeap(jobID, traceID, reason, heapFile); err == nil {
		out = append(out, c)
	} else {
		return out, err
	}
	return out, nil
}

// ErrBusy reports a capture attempt while another is sampling.
var ErrBusy = fmt.Errorf("perfmon: a profile capture is already in flight")

func (ps *ProfileStore) captureCPU(jobID, traceID, reason, name string, dur time.Duration) (Capture, error) {
	f, err := os.Create(filepath.Join(ps.dir, name))
	if err != nil {
		return Capture{}, fmt.Errorf("perfmon: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return Capture{}, fmt.Errorf("perfmon: cpu profile: %w", err)
	}
	time.Sleep(dur)
	pprof.StopCPUProfile()
	return ps.finish(f, jobID, traceID, reason, "cpu", name)
}

func (ps *ProfileStore) captureHeap(jobID, traceID, reason, name string) (Capture, error) {
	f, err := os.Create(filepath.Join(ps.dir, name))
	if err != nil {
		return Capture{}, fmt.Errorf("perfmon: heap profile: %w", err)
	}
	// An up-to-date heap profile needs a completed GC cycle behind it.
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return Capture{}, fmt.Errorf("perfmon: heap profile: %w", err)
	}
	return ps.finish(f, jobID, traceID, reason, "heap", name)
}

// finish closes the profile file, registers the capture, and evicts past
// the bound.
func (ps *ProfileStore) finish(f *os.File, jobID, traceID, reason, kind, name string) (Capture, error) {
	info, statErr := f.Stat()
	if err := f.Close(); err != nil {
		return Capture{}, fmt.Errorf("perfmon: %s profile: %w", kind, err)
	}
	var size int64
	if statErr == nil {
		size = info.Size()
	}
	c := Capture{JobID: jobID, TraceID: traceID, Reason: reason, Kind: kind, File: name, Size: size, CreatedAt: time.Now()}
	ps.mu.Lock()
	ps.captures = append(ps.captures, c)
	var evict []string
	for len(ps.captures) > ps.max {
		evict = append(evict, ps.captures[0].File)
		ps.captures = ps.captures[1:]
	}
	ps.mu.Unlock()
	for _, old := range evict {
		os.Remove(filepath.Join(ps.dir, old))
	}
	return c, nil
}

// List returns captures for one job (or all jobs when jobID is empty),
// oldest first.
func (ps *ProfileStore) List(jobID string) []Capture {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]Capture, 0, len(ps.captures))
	for _, c := range ps.captures {
		if jobID == "" || c.JobID == jobID {
			out = append(out, c)
		}
	}
	return out
}

// Len returns how many captures the store currently holds.
func (ps *ProfileStore) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.captures)
}

// Open serves a stored profile by file name. Only names the store itself
// registered resolve — path traversal cannot reach outside the directory.
func (ps *ProfileStore) Open(name string) (*os.File, error) {
	ps.mu.Lock()
	found := false
	for _, c := range ps.captures {
		if c.File == name {
			found = true
			break
		}
	}
	ps.mu.Unlock()
	if !found {
		return nil, os.ErrNotExist
	}
	return os.Open(filepath.Join(ps.dir, name))
}

// sanitizeID makes a job id safe as a file-name fragment.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// SortCapturesByTime orders captures newest first, for API listings.
func SortCapturesByTime(cs []Capture) {
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].CreatedAt.After(cs[j].CreatedAt) })
}
