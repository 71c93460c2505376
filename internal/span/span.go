// Package span is womd's lightweight job-tracing subsystem: trace
// and span identifiers with parent links, wall-clock start times paired
// with monotonic durations, typed attributes, a bounded per-process span
// buffer with deterministic head sampling, and W3C traceparent propagation
// over HTTP.
//
// The model is deliberately small. A trace is identified by a 128-bit id
// and covers one job's whole lifecycle; a span is one timed operation
// inside it (admission, queue wait, execution, result store, SSE fan-out),
// linked to its parent by span id. The process records its spans into a
// Recorder — a fixed-capacity ring that evicts oldest-first, so tracing
// can stay always-on without unbounded memory. The keep/drop decision is
// made once per trace at its head (StartTrace) from a seeded hash of the
// trace id, and a trace continued from a client's traceparent inherits
// the client's sampled flag; a fixed seed yields a fixed keep/drop
// sequence (testable determinism).
//
// A job's trace is served as Chrome trace-event JSON (ChromeTraceOf) —
// directly loadable in Perfetto, and rendered to an HTML waterfall by
// `womtool spans`. See DESIGN.md §13.
package span

import (
	"sync"
	"time"
)

// Context identifies a position in a trace: the trace id, the id of the
// current (parent-to-be) span, and whether the trace is being recorded.
// It is the unit of propagation — across goroutines via values, and from
// a client via the W3C traceparent header (Traceparent / Parse).
type Context struct {
	// TraceID is 32 lowercase hex characters (128 bits), shared by every
	// span of the trace.
	TraceID string `json:"trace_id"`
	// SpanID is 16 lowercase hex characters (64 bits): the span that new
	// children should parent to.
	SpanID string `json:"span_id"`
	// Sampled is the head-sampling decision, made once when the trace
	// started and propagated unchanged — an unsampled trace records
	// nothing.
	Sampled bool `json:"sampled"`
}

// Valid reports whether the context carries well-formed ids.
func (c Context) Valid() bool {
	return len(c.TraceID) == 32 && len(c.SpanID) == 16 &&
		isHex(c.TraceID) && isHex(c.SpanID) &&
		c.TraceID != zeroTraceID && c.SpanID != zeroSpanID
}

// Attrs carries a span's typed attributes. Values are set through the
// typed setters on Active (strings, int64s, float64s, bools); integer
// values larger than 2⁵³ lose precision across a JSON hop.
type Attrs map[string]any

// Span is one completed timed operation, the wire and storage form.
// StartNs is the wall clock (Unix nanoseconds); DurNs was measured on the
// monotonic clock, so a span's duration is immune to wall-clock steps even
// though its placement is not.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the parent span's id; empty for a trace's root span.
	Parent string `json:"parent_id,omitempty"`
	// Name says what the span timed: "job", "admission", "queue_wait",
	// "execute", "store", "sse_stream", ...
	Name string `json:"name"`
	// Service names the process that recorded the span (Recorder
	// service), "womd" by default.
	Service string `json:"service"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   Attrs  `json:"attrs,omitempty"`
}

// End returns the span's wall-clock end in Unix nanoseconds.
func (s Span) End() int64 { return s.StartNs + s.DurNs }

// Active is a started, not-yet-ended span. A nil *Active is a valid inert
// span: every method is a no-op and Context returns the zero Context, so
// call sites need no tracing-enabled checks. An Active for an unsampled
// trace still carries a valid Context (for propagation) but records
// nothing on End.
type Active struct {
	rec    *Recorder // nil: unsampled or tracing disabled
	ctx    Context
	parent string
	name   string
	start  time.Time // carries the monotonic reading for End's duration

	mu    sync.Mutex
	attrs Attrs
	ended bool
}

// Context returns the span's trace position, the parent for children and
// the source of the traceparent header. Zero for a nil span.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	return a.ctx
}

func (a *Active) set(k string, v any) {
	if a == nil || a.rec == nil {
		return
	}
	a.mu.Lock()
	if !a.ended {
		if a.attrs == nil {
			a.attrs = make(Attrs, 4)
		}
		a.attrs[k] = v
	}
	a.mu.Unlock()
}

// SetStr attaches a string attribute.
func (a *Active) SetStr(k, v string) { a.set(k, v) }

// SetInt attaches an int64 attribute.
func (a *Active) SetInt(k string, v int64) { a.set(k, v) }

// SetFloat attaches a float64 attribute.
func (a *Active) SetFloat(k string, v float64) { a.set(k, v) }

// SetBool attaches a bool attribute.
func (a *Active) SetBool(k string, v bool) { a.set(k, v) }

// End completes the span — duration from the monotonic clock — and hands
// it to the recorder. Idempotent; no-op for nil or unsampled spans.
func (a *Active) End() {
	if a == nil || a.rec == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	attrs := a.attrs
	a.mu.Unlock()
	a.rec.add(Span{
		TraceID: a.ctx.TraceID,
		SpanID:  a.ctx.SpanID,
		Parent:  a.parent,
		Name:    a.name,
		Service: a.rec.service,
		StartNs: a.start.UnixNano(),
		DurNs:   time.Since(a.start).Nanoseconds(),
		Attrs:   attrs,
	})
}

const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"
)

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
