package span

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"womcpcm/internal/metrics"
)

func TestBufferBounding(t *testing.T) {
	rec := New(Config{Capacity: 4, Seed: 7})
	root := rec.StartTrace("job")
	tc := root.Context()
	base := time.Now()
	for i := 0; i < 10; i++ {
		rec.Record(tc, fmt.Sprintf("step-%d", i), base.Add(time.Duration(i)*time.Millisecond), base.Add(time.Duration(i+1)*time.Millisecond), nil)
	}
	snap := rec.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("buffered %d spans, want capacity 4", len(snap))
	}
	// Oldest-first eviction: the survivors are the last four recorded.
	for i, s := range snap {
		want := fmt.Sprintf("step-%d", 6+i)
		if s.Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, s.Name, want)
		}
	}
	var buf bytes.Buffer
	metrics.Write(&buf, rec.Collect())
	out := buf.String()
	if !strings.Contains(out, "womd_spans_evicted_total 6") {
		t.Errorf("WriteProm missing eviction count:\n%s", out)
	}
	if !strings.Contains(out, "womd_spans_buffered 4") {
		t.Errorf("WriteProm missing buffered gauge:\n%s", out)
	}
}

func TestDeterministicHeadSampling(t *testing.T) {
	// Same seed ⇒ same trace ids and the same keep/drop sequence.
	decisions := func(seed uint64) []bool {
		rec := New(Config{SampleRate: 0.5, Seed: seed})
		out := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			out = append(out, rec.StartTrace("job").Context().Sampled)
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	kept := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded recorders", i)
		}
		if a[i] {
			kept++
		}
	}
	if kept == 0 || kept == len(a) {
		t.Fatalf("rate 0.5 kept %d/%d traces; sampling is not discriminating", kept, len(a))
	}
	c := decisions(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical keep/drop sequences")
	}
}

func TestSamplingDecisionFollowsTraceID(t *testing.T) {
	// The decision is a pure function of (seed, trace id): a second
	// recorder with the same seed agrees on someone else's trace id.
	r1 := New(Config{SampleRate: 0.5, Seed: 9})
	r2 := New(Config{SampleRate: 0.5, Seed: 9, Service: "other"})
	for i := 0; i < 32; i++ {
		tc := r1.StartTrace("job").Context()
		if got := r2.sampled(tc.TraceID); got != tc.Sampled {
			t.Fatalf("trace %s: r1 sampled=%v, r2 says %v", tc.TraceID, tc.Sampled, got)
		}
	}
}

func TestUnsampledTraceRecordsNothing(t *testing.T) {
	rec := New(Config{SampleRate: -1, Seed: 3})
	root := rec.StartTrace("job")
	if !root.Context().Valid() {
		t.Fatalf("unsampled trace must still carry valid ids for propagation")
	}
	if root.Context().Sampled {
		t.Fatalf("rate -1 sampled a trace")
	}
	child := rec.StartSpan(root.Context(), "step")
	child.SetStr("k", "v")
	child.End()
	root.End()
	if n := len(rec.Snapshot()); n != 0 {
		t.Fatalf("unsampled trace recorded %d spans", n)
	}
}

func TestNilRecorderAndSpanAreInert(t *testing.T) {
	var rec *Recorder
	root := rec.StartTrace("job")
	if root != nil {
		t.Fatalf("nil recorder returned a non-nil span")
	}
	root.SetInt("k", 1) // must not panic
	root.End()
	if tc := root.Context(); tc.Valid() {
		t.Fatalf("nil span has a valid context")
	}
}

func TestSpanParentLinksAndEndIdempotence(t *testing.T) {
	rec := New(Config{Seed: 5})
	root := rec.StartTrace("job")
	child := rec.StartSpan(root.Context(), "execute")
	child.SetInt("sim_events", 123)
	child.End()
	child.End() // idempotent
	root.End()
	spans := rec.Trace(root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["execute"].Parent != byName["job"].SpanID {
		t.Errorf("execute parent = %q, want root %q", byName["execute"].Parent, byName["job"].SpanID)
	}
	if byName["job"].Parent != "" {
		t.Errorf("root has parent %q", byName["job"].Parent)
	}
	if got := byName["execute"].Attrs["sim_events"]; got != int64(123) {
		t.Errorf("attr sim_events = %v (%T)", got, got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	rec := New(Config{Seed: 11})
	tc := rec.StartTrace("job").Context()
	tp := tc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q malformed", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}

	// Unsampled flag round-trips too.
	tc.Sampled = false
	got, ok = ParseTraceparent(tc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: %+v ok=%v", got, ok)
	}

	r, _ := http.NewRequest("GET", "http://x/", nil)
	r.Header.Set(Header, tc.Traceparent())
	got, ok = FromRequest(r)
	if !ok || got != tc {
		t.Fatalf("header round trip: %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-", // trailing junk on v00
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // forbidden version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span id
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",  // uppercase ids
		"00+0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
	// Future version with extra suffix is accepted (forward compat).
	if _, ok := ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Errorf("future-version traceparent rejected")
	}
}

func TestChromeTraceOf(t *testing.T) {
	tid := strings.Repeat("a", 32)
	spans := []Span{
		{TraceID: tid, SpanID: "0000000000000001", Name: "job", Service: "coordinator", StartNs: 1_000_000, DurNs: 5_000_000},
		{TraceID: tid, SpanID: "0000000000000002", Parent: "0000000000000001", Name: "dispatch", Service: "coordinator", StartNs: 2_000_000, DurNs: 3_000_000},
		{TraceID: tid, SpanID: "0000000000000003", Parent: "0000000000000002", Name: "execute", Service: "w-001", StartNs: 2_500_000, DurNs: 2_000_000, Attrs: Attrs{"sim_events": int64(9)}},
	}
	tr := ChromeTraceOf(spans)
	if tr.DisplayTimeUnit == "" {
		t.Fatalf("missing displayTimeUnit")
	}
	var meta, slices int
	pids := map[int]string{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			pids[ev.Pid] = ev.Args["name"].(string)
		case "X":
			slices++
			if ev.Args["span_id"] == nil {
				t.Errorf("slice %q missing span_id arg", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || slices != 3 {
		t.Fatalf("got %d metadata + %d slices, want 2 + 3", meta, slices)
	}
	if pids[1] != "coordinator" || pids[2] != "w-001" {
		t.Fatalf("pid naming wrong: %v", pids)
	}
	// job and dispatch overlap on the coordinator → distinct lanes.
	lanes := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Name] = ev.Tid
		}
	}
	if lanes["job"] == lanes["dispatch"] {
		t.Errorf("overlapping spans share lane %d", lanes["job"])
	}
	// Metadata sorts first; slices are start-ordered after normalization.
	if tr.TraceEvents[0].Ph != "M" || tr.TraceEvents[1].Ph != "M" {
		t.Errorf("metadata not first")
	}
	if tr.TraceEvents[2].Name != "job" || tr.TraceEvents[2].Ts != 0 {
		t.Errorf("first slice = %q ts=%v, want job at 0", tr.TraceEvents[2].Name, tr.TraceEvents[2].Ts)
	}
}

func TestRecordRetroactive(t *testing.T) {
	rec := New(Config{Seed: 17})
	root := rec.StartTrace("job")
	// The root ends (and enters the buffer) first; Trace still orders the
	// earlier-starting queue_wait span ahead of it.
	root.End()
	start := time.Now().Add(-10 * time.Millisecond)
	ctx := rec.Record(root.Context(), "queue_wait", start, start.Add(4*time.Millisecond), Attrs{"tenant": "t1"})
	if !ctx.Valid() {
		t.Fatalf("Record returned invalid context")
	}
	spans := rec.Trace(root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	qw := spans[0]
	if qw.Name != "queue_wait" || qw.DurNs != (4*time.Millisecond).Nanoseconds() {
		t.Fatalf("queue_wait span wrong: %+v", qw)
	}
	if qw.Parent != root.Context().SpanID {
		t.Fatalf("queue_wait parent %q, want %q", qw.Parent, root.Context().SpanID)
	}
}
