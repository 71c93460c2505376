package span

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"womcpcm/internal/metrics"
)

// Config parameterizes a Recorder. The zero value is usable: service
// "womd", capacity 4096, sample everything, random seed.
type Config struct {
	// Service names this process in recorded spans. Defaults to "womd".
	Service string
	// Capacity bounds the span ring; oldest spans are evicted when full.
	// Defaults to 4096.
	Capacity int
	// SampleRate is the head-sampling probability in [0,1]. 0 means 1.0
	// (record everything); negative disables recording entirely while
	// still issuing valid ids for propagation.
	SampleRate float64
	// Seed drives both id generation and the sampling hash. 0 draws a
	// random seed; a fixed seed makes id and keep/drop sequences
	// reproducible (tests).
	Seed uint64
}

// Recorder owns a process's span buffer: it issues trace/span ids, makes
// the head-sampling decision, and keeps the most recent completed spans
// in a fixed-size ring. All methods are safe for concurrent use and all
// are nil-safe — a nil *Recorder records nothing and returns inert
// (but propagation-valid: zero) values, so tracing can be wired
// unconditionally and switched off by config.
type Recorder struct {
	service   string
	capacity  int
	threshold uint64 // keep trace iff mix(hash(traceID)^seed) < threshold

	mu      sync.Mutex
	idState uint64 // splitmix64 state for id generation
	seed    uint64
	ring    []Span
	head    int // next write position
	count   int // live spans in ring

	recorded   uint64
	evicted    uint64
	sampledOut uint64
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	if cfg.Service == "" {
		cfg.Service = "womd"
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			cfg.Seed = binary.LittleEndian.Uint64(b[:])
		} else {
			cfg.Seed = uint64(time.Now().UnixNano())
		}
		if cfg.Seed == 0 {
			cfg.Seed = 1
		}
	}
	rate := cfg.SampleRate
	if rate == 0 {
		rate = 1
	}
	var threshold uint64
	switch {
	case rate >= 1:
		threshold = math.MaxUint64
	case rate <= 0:
		threshold = 0
	default:
		threshold = uint64(rate * math.MaxUint64)
	}
	return &Recorder{
		service:   cfg.Service,
		capacity:  cfg.Capacity,
		threshold: threshold,
		idState:   cfg.Seed,
		seed:      cfg.Seed,
		ring:      make([]Span, cfg.Capacity),
	}
}

// splitmix64 finalizer — also the id-sequence step function.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *Recorder) next64() uint64 {
	r.idState++
	v := mix64(r.idState)
	if v == 0 { // all-zero ids are invalid per W3C
		v = 1
	}
	return v
}

// sampled makes the deterministic keep/drop decision for a trace id:
// FNV-64a of the id, xored with the seed, splitmix-finalized, compared
// against the rate threshold. Same seed + same trace id ⇒ same answer.
func (r *Recorder) sampled(traceID string) bool {
	h := fnv.New64a()
	io.WriteString(h, traceID)
	return mix64(h.Sum64()^r.seed) < r.threshold
}

// StartTrace begins a new trace rooted at a span called name. The
// returned Active always carries a valid Context (ids are issued even
// when the trace is sampled out or the recorder is nil, so propagation
// and response annotation still work); only sampled traces record spans.
func (r *Recorder) StartTrace(name string) *Active {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	tid := fmt.Sprintf("%016x%016x", r.next64(), r.next64())
	sid := fmt.Sprintf("%016x", r.next64())
	r.mu.Unlock()
	ctx := Context{TraceID: tid, SpanID: sid, Sampled: r.sampled(tid)}
	a := &Active{ctx: ctx, name: name, start: time.Now()}
	if ctx.Sampled {
		a.rec = r
	} else {
		r.mu.Lock()
		r.sampledOut++
		r.mu.Unlock()
	}
	return a
}

// StartSpan begins a child span under parent. A nil or invalid parent
// context yields nil (inert) — spans never start their own traces, so an
// uninstrumented caller simply produces no children. The parent's
// sampling decision is inherited, never re-made.
func (r *Recorder) StartSpan(parent Context, name string) *Active {
	if r == nil || !parent.Valid() {
		return nil
	}
	r.mu.Lock()
	sid := fmt.Sprintf("%016x", r.next64())
	r.mu.Unlock()
	a := &Active{
		ctx:    Context{TraceID: parent.TraceID, SpanID: sid, Sampled: parent.Sampled},
		parent: parent.SpanID,
		name:   name,
		start:  time.Now(),
	}
	if parent.Sampled {
		a.rec = r
	}
	return a
}

// Record registers a completed span retroactively from wall-clock
// endpoints — for phases whose boundaries are only known after the fact
// (queue wait: enqueue time to dequeue time). Returns the recorded
// span's context so further children can parent to it.
func (r *Recorder) Record(parent Context, name string, start, end time.Time, attrs Attrs) Context {
	if r == nil || !parent.Valid() {
		return Context{}
	}
	r.mu.Lock()
	sid := fmt.Sprintf("%016x", r.next64())
	r.mu.Unlock()
	ctx := Context{TraceID: parent.TraceID, SpanID: sid, Sampled: parent.Sampled}
	if !parent.Sampled {
		return ctx
	}
	dur := end.Sub(start)
	if dur < 0 {
		dur = 0
	}
	r.add(Span{
		TraceID: ctx.TraceID,
		SpanID:  ctx.SpanID,
		Parent:  parent.SpanID,
		Name:    name,
		Service: r.service,
		StartNs: start.UnixNano(),
		DurNs:   dur.Nanoseconds(),
		Attrs:   attrs,
	})
	return ctx
}

// add inserts one completed span, evicting the oldest if the ring is full.
// Span ids come from this recorder's own sequence, so no two are equal and
// nothing needs deduplicating.
func (r *Recorder) add(s Span) {
	r.mu.Lock()
	if r.count == r.capacity {
		r.evicted++
	} else {
		r.count++
	}
	r.ring[r.head] = s
	r.head = (r.head + 1) % r.capacity
	r.recorded++
	r.mu.Unlock()
}

// Trace returns all buffered spans of one trace, ordered by start time
// (then span id for ties). Nil if none are buffered.
func (r *Recorder) Trace(traceID string) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Span
	for i := 0; i < r.count; i++ {
		s := r.ring[(r.head-r.count+i+r.capacity)%r.capacity]
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	sortSpans(out)
	return out
}

// Snapshot returns every buffered span, oldest first.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.head-r.count+i+r.capacity)%r.capacity])
	}
	return out
}

func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// Collect returns the recorder's own health as metric families.
func (r *Recorder) Collect() []metrics.Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recorded, evicted, sampledOut, buffered := r.recorded, r.evicted, r.sampledOut, r.count
	r.mu.Unlock()
	return []metrics.Family{
		metrics.Counter("womd_spans_recorded_total", "Spans accepted into the trace buffer.", float64(recorded)),
		metrics.Counter("womd_spans_evicted_total", "Spans evicted from the full trace buffer.", float64(evicted)),
		metrics.Counter("womd_spans_sampled_out_total", "Traces dropped by head sampling.", float64(sampledOut)),
		metrics.Gauge("womd_spans_buffered", "Spans currently held in the trace buffer.", float64(buffered)),
	}
}
