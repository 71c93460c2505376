package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/sim"
	"womcpcm/internal/telemetry"
)

// sseEvent is one parsed Server-Sent-Events frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses frames from an event stream until the body ends or the
// limit is reached, skipping comments and the retry line.
func readSSE(t *testing.T, body *bufio.Reader, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for len(events) < limit {
		line, err := body.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = sseEvent{}
		}
	}
	return events
}

// TestStreamEndToEnd is the e2e SSE contract: connect mid-job, receive at
// least one telemetry window event and the terminal done event, with the
// stream ending after done.
func TestStreamEndToEnd(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 8})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	recs := progressTrace(120000)
	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "replay", Params: sim.Params{
		Trace: recs, TraceLabel: "stream", Ranks: 2, Banks: 4, Parallelism: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	events := readSSE(t, bufio.NewReader(resp.Body), 100000)
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	var windows, progress, done int
	for _, ev := range events {
		switch ev.name {
		case "window":
			windows++
			var w streamWindow
			if err := json.Unmarshal([]byte(ev.data), &w); err != nil {
				t.Fatalf("bad window payload %q: %v", ev.data, err)
			}
			if w.Arch == "" || w.Window.EndNs <= w.Window.StartNs {
				t.Fatalf("malformed window event: %+v", w)
			}
		case "progress":
			progress++
		case "done":
			done++
			var v JobView
			if err := json.Unmarshal([]byte(ev.data), &v); err != nil {
				t.Fatalf("bad done payload %q: %v", ev.data, err)
			}
			if v.ID != job.ID() || v.State != StateSucceeded {
				t.Fatalf("done event = %+v, want succeeded %s", v, job.ID())
			}
		}
	}
	if windows == 0 {
		t.Error("no window events streamed")
	}
	if progress == 0 {
		t.Error("no progress events streamed")
	}
	if done != 1 {
		t.Errorf("done events = %d, want exactly 1 (stream must end after done)", done)
	}
	if events[len(events)-1].name != "done" {
		t.Errorf("last event = %q, want done", events[len(events)-1].name)
	}
}

// TestStreamTerminalJob checks a finished job answers immediately with just
// the done event.
func TestStreamTerminalJob(t *testing.T) {
	mgr := New(Config{Workers: 1})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "replay", Params: sim.Params{
		Trace: progressTrace(500), TraceLabel: "tiny", Ranks: 2, Banks: 2, Parallelism: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for !job.State().Terminal() {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewReader(resp.Body), 10)
	if len(events) != 1 || events[0].name != "done" {
		t.Fatalf("terminal job events = %+v, want single done", events)
	}
}

// TestStreamClientCancelCleanup checks a disconnecting client's subscription
// is torn down: the client-count gauge returns to zero while the job still
// runs.
func TestStreamClientCancelCleanup(t *testing.T) {
	mgr := New(Config{Workers: 1, QueueDepth: 8})
	defer mgr.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	job, err := mgr.Submit(context.Background(), JobRequest{Experiment: "replay", Params: sim.Params{
		Trace: progressTrace(400000), TraceLabel: "cancel", Ranks: 2, Banks: 4, Parallelism: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID()+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame to be sure the subscription registered, then hang up.
	readSSE(t, bufio.NewReader(resp.Body), 1)
	if got := mgr.Metrics().StreamClients.Load(); got != 1 {
		t.Errorf("stream clients = %d with one subscriber, want 1", got)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for mgr.Metrics().StreamClients.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream clients still %d after disconnect", mgr.Metrics().StreamClients.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if !job.State().Terminal() {
		// Cleanup happened while the job was live — the interesting case.
		// Cancel it so shutdown stays fast.
		mgr.Cancel(job.ID()) //nolint:errcheck
	}
}

// TestStreamDropAccounting fills a subscriber buffer without draining it and
// checks overflow is counted, not blocked on.
func TestStreamDropAccounting(t *testing.T) {
	metrics := NewMetrics()
	hub := newStreamHub(metrics)
	sub, cancel := hub.subscribe()
	defer cancel()

	total := streamClientBuf + 50
	donech := make(chan struct{})
	go func() {
		defer close(donech)
		for i := 0; i < total; i++ {
			publish(hub, "progress", ProgressView{Done: int64(i)})
		}
	}()
	select {
	case <-donech:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a full subscriber buffer")
	}
	if got := metrics.StreamDropped.Load(); got != 50 {
		t.Errorf("dropped = %d, want 50", got)
	}
	// The retained prefix is intact and ordered.
	for i := 0; i < streamClientBuf; i++ {
		ev := <-sub.ch
		var p ProgressView
		if err := json.Unmarshal(ev.Data, &p); err != nil || p.Done != int64(i) {
			t.Fatalf("event %d = %s (err %v)", i, ev.Data, err)
		}
	}
}

// TestStreamHubCloseIdempotent checks closing twice and late subscription.
func TestStreamHubCloseIdempotent(t *testing.T) {
	metrics := NewMetrics()
	hub := newStreamHub(metrics)
	sub, cancel := hub.subscribe()
	defer cancel()
	hub.close()
	hub.close()
	if _, open := <-sub.ch; open {
		t.Error("subscriber channel still open after close")
	}
	if got := metrics.StreamClients.Load(); got != 0 {
		t.Errorf("stream clients = %d after close, want 0", got)
	}
	// Late subscribers get an already-closed feed.
	late, lateCancel := hub.subscribe()
	defer lateCancel()
	if _, open := <-late.ch; open {
		t.Error("late subscriber channel open on closed hub")
	}
	// Publishing to a closed hub is a no-op.
	publish(hub, "progress", ProgressView{})
	var nilHub *streamHub
	nilHub.close() // nil-safe
}

// TestStreamPublishFrames checks that a subscriber receives exactly the
// bytes json.Marshal gives for each published payload.
func TestStreamPublishFrames(t *testing.T) {
	hub := newStreamHub(NewMetrics())
	sub, cancel := hub.subscribe()
	defer cancel()
	win := streamWindow{Arch: "WOM-code PCM", Window: telemetry.Window{
		Index: 3, StartNs: 300_000, EndNs: 400_000, BusyNs: 12345,
		Writes: telemetry.WriteMix{First: 1, Alpha: 2}, Utilization: 0.25, EnergyPJ: 1.5,
	}}
	prog := ProgressView{Done: 7, Total: 10}
	publish(hub, "window", win)
	publish(hub, "progress", prog)
	for _, want := range []struct {
		name string
		v    any
	}{{"window", win}, {"progress", prog}} {
		data, err := json.Marshal(want.v)
		if err != nil {
			t.Fatal(err)
		}
		ev := <-sub.ch
		if ev.Name != want.name || !bytes.Equal(ev.Data, data) {
			t.Errorf("frame %q = %s, want %q = %s", ev.Name, ev.Data, want.name, data)
		}
	}
}

// TestStreamPublishUnwatchedAllocs pins the unwatched path: publishing on a
// hub with no subscriber, or a closed one, marshals nothing and allocates
// nothing.
func TestStreamPublishUnwatchedAllocs(t *testing.T) {
	hub := newStreamHub(NewMetrics())
	win := streamWindow{Arch: "PCM-refresh", Window: telemetry.Window{Index: 1, BusyNs: 99}}
	if allocs := testing.AllocsPerRun(100, func() { publish(hub, "window", win) }); allocs != 0 {
		t.Errorf("publish without subscribers allocates %v times, want 0", allocs)
	}
	_, cancel := hub.subscribe()
	cancel()
	if allocs := testing.AllocsPerRun(100, func() { publish(hub, "window", win) }); allocs != 0 {
		t.Errorf("publish after the last subscriber left allocates %v times, want 0", allocs)
	}
	hub.close()
	if allocs := testing.AllocsPerRun(100, func() { publish(hub, "progress", ProgressView{Done: 1}) }); allocs != 0 {
		t.Errorf("publish on a closed hub allocates %v times, want 0", allocs)
	}
}
