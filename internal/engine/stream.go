package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"womcpcm/internal/telemetry"
)

// streamClientBuf bounds one SSE subscriber's event backlog. A client that
// cannot drain this many events loses the overflow (counted in
// womd_stream_dropped_total) instead of back-pressuring the simulation: the
// experiment's clock must never wait on a slow network reader.
const streamClientBuf = 256

// streamEvent is one live job event: the event name plus a single-line JSON
// payload (json.Marshal emits no newlines, so one SSE data: line suffices).
type streamEvent struct {
	Name string
	Data []byte
}

// streamWindow is the "window" event payload: one finalized telemetry window
// labeled with its architecture.
type streamWindow struct {
	Arch   string           `json:"arch"`
	Window telemetry.Window `json:"window"`
}

// streamSub is one subscriber's bounded event feed. The channel closes when
// the job reaches a terminal state.
type streamSub struct {
	ch chan streamEvent
}

// streamHub fans one job's live events (telemetry windows, progress) out to
// its SSE subscribers. Publishing never blocks: a subscriber whose buffer is
// full loses the event, with the loss counted in metrics.
type streamHub struct {
	metrics *Metrics
	// dropped counts this hub's lost events — the per-job view of
	// womd_stream_dropped_total, surfaced in progress snapshots and the
	// job's perf block.
	dropped atomic.Uint64

	mu     sync.Mutex
	subs   map[*streamSub]struct{}
	closed bool
}

func newStreamHub(metrics *Metrics) *streamHub {
	return &streamHub{metrics: metrics, subs: make(map[*streamSub]struct{})}
}

// publish marshals v once and offers the event to every subscriber of h,
// dropping per-subscriber on a full buffer. A hub with no subscriber, or a
// closed one, skips the marshal, so an unwatched job publishes without
// allocating (v is generic rather than any for the same reason: boxing it
// would allocate at the call). Marshal failures are dropped silently —
// payloads are this package's own types.
func publish[T any](h *streamHub, name string, v T) {
	if !h.watched() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	ev := streamEvent{Name: name, Data: data}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			h.metrics.StreamDropped.Add(1)
			h.dropped.Add(1)
		}
	}
}

// watched reports whether an event published now could reach a
// subscriber: the hub is open and has at least one.
func (h *streamHub) watched() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.closed && len(h.subs) > 0
}

// droppedCount reports this hub's lost events; nil-safe (cache-hit jobs
// have no hub).
func (h *streamHub) droppedCount() uint64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// subscribe registers a new bounded feed. The returned cancel is idempotent
// and must be called when the client disconnects; it unregisters the
// subscriber and drops its buffered tail. Subscribing to a closed hub
// returns an already-closed feed, so callers fall straight through to the
// terminal event.
func (h *streamHub) subscribe() (*streamSub, func()) {
	sub := &streamSub{ch: make(chan streamEvent, streamClientBuf)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(sub.ch)
		return sub, func() {}
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	h.metrics.StreamClients.Add(1)

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			_, present := h.subs[sub]
			delete(h.subs, sub)
			h.mu.Unlock()
			if present {
				h.metrics.StreamClients.Add(-1)
			}
		})
	}
	return sub, cancel
}

// streamJob serves GET /v1/jobs/{id}/stream: a Server-Sent-Events feed of
// the job's live telemetry ("window" events, replay jobs), throttled
// "progress" events, and a final "done" event carrying the terminal JobView.
// Heartbeat comments keep idle streams alive through proxies; a client
// disconnect (request context) tears the subscription down. See DESIGN.md
// §10 for the protocol.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, fmt.Errorf("%w: job %q", ErrNotFound, r.PathValue("id")))
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // no proxy buffering
	w.WriteHeader(http.StatusOK)

	// Reconnect hint: a dropped client retries after 2s and, for a still
	// live job, resumes the stream (windows missed in between are lost —
	// the full series is in the job result).
	writeEvent := func(name string, data []byte) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	if _, err := io.WriteString(w, "retry: 2000\n\n"); err != nil || rc.Flush() != nil {
		return
	}
	sendDone := func() {
		data, err := json.Marshal(job.View())
		if err == nil {
			writeEvent("done", data)
		}
	}
	if job.State().Terminal() || job.hub == nil {
		sendDone()
		return
	}
	sub, cancelSub := job.hub.subscribe()
	defer cancelSub()
	// The fan-out leg of the job's trace: how long this subscriber held
	// the stream open and how many events it was sent.
	sse := s.m.Tracer().StartSpan(job.TraceContext(), "sse_stream")
	var sseEvents int64
	defer func() {
		sse.SetInt("events", sseEvents)
		sse.End()
	}()
	// Initial snapshot: a client connecting mid-job sees the current
	// position without waiting for the next report.
	if data, err := json.Marshal(job.Progress()); err == nil {
		if !writeEvent("progress", data) {
			return
		}
		sseEvents++
	}
	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil || rc.Flush() != nil {
				return
			}
		case ev, open := <-sub.ch:
			if !open {
				// Terminal state: the buffered tail drained, report the
				// outcome and end the stream.
				sendDone()
				sseEvents++
				return
			}
			if !writeEvent(ev.Name, ev.Data) {
				return
			}
			sseEvents++
		}
	}
}

// close marks the job terminal: every subscriber's channel closes once its
// buffered events drain, and late subscribers get a closed feed. Idempotent
// and nil-safe (jobs born terminal have no hub).
func (h *streamHub) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	n := int64(0)
	for sub := range h.subs {
		close(sub.ch)
		n++
	}
	h.subs = make(map[*streamSub]struct{})
	if n > 0 {
		h.metrics.StreamClients.Add(-n)
	}
}
