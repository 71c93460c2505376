package resultstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"womcpcm/internal/sim"
)

// fakeResult builds a small, JSON-stable result for store tests.
func fakeResult(exp string, mean float64) *sim.Result {
	return &sim.Result{
		Experiment: exp,
		Data: map[string]any{
			"MeanWrite": []any{1.0, mean},
			"Rows": []any{
				map[string]any{"Benchmark": "qsort", "Write": []any{1.0, mean}},
			},
		},
		Text: "table for " + exp,
	}
}

// mustPut stores a fake entry under a synthetic key.
func mustPut(t *testing.T, s *Store, key, exp string, mean float64) {
	t.Helper()
	if err := s.Put(Entry{
		Key:        key,
		Experiment: exp,
		Params:     json.RawMessage(`{"requests":1000}`),
		Result:     fakeResult(exp, mean),
		WallNs:     12345,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "aaa", "fig5", 0.8)
	mustPut(t, s, "bbb", "fig6", 0.9)
	// Overwrite: the newer record must win after replay.
	mustPut(t, s, "aaa", "fig5", 0.75)
	if _, err := s.PinBaseline("v1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Appending after close must fail cleanly.
	if err := s.Put(Entry{Key: "zzz"}); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close = %v", err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len(); got != 2 {
		t.Fatalf("reopened entries = %d, want 2", got)
	}
	e, ok := r.Get("aaa")
	if !ok {
		t.Fatal("aaa missing after reopen")
	}
	if e.Experiment != "fig5" || e.WallNs != 12345 || e.Result.Text != "table for fig5" {
		t.Errorf("entry drifted: %+v", e)
	}
	m, err := EntryMetrics(e)
	if err != nil {
		t.Fatal(err)
	}
	if m["MeanWrite.1"] != 0.75 {
		t.Errorf("last write did not win: MeanWrite.1 = %v", m["MeanWrite.1"])
	}
	b, err := r.Baseline("v1")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Metrics) != 2 || b.Experiments["bbb"] != "fig6" {
		t.Errorf("baseline did not survive reopen: %+v", b)
	}
	// Entries listing is deterministic: sorted by experiment then key.
	entries := r.Entries()
	if len(entries) != 2 || entries[0].Key != "aaa" || entries[1].Key != "bbb" {
		t.Errorf("entries order: %v, %v", entries[0].Key, entries[1].Key)
	}
}

// TestTornTailEveryOffset is the crash-recovery acceptance test: a store
// log truncated at EVERY byte offset inside its final record must reopen
// cleanly with all fully-written records intact and stay appendable.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "aaa", "fig5", 0.8)
	mustPut(t, s, "bbb", "fig6", 0.9)
	segPath := s.seg.Path(1)
	st, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lastGood := st.Size() // offset where the final record begins
	mustPut(t, s, "ccc", "fig7", 0.7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(full))
	if total <= lastGood {
		t.Fatalf("final record added no bytes: %d <= %d", total, lastGood)
	}

	for off := lastGood; off < total; off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segPath)), full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		if got := r.Len(); got != 2 {
			t.Fatalf("offset %d: recovered %d records, want 2", off, got)
		}
		for _, key := range []string{"aaa", "bbb"} {
			if _, ok := r.Get(key); !ok {
				t.Fatalf("offset %d: %s lost", off, key)
			}
		}
		if _, ok := r.Get("ccc"); ok {
			t.Fatalf("offset %d: torn record resurrected", off)
		}
		// The truncated store must accept appends and replay them later.
		mustPut(t, r, "ddd", "rth", 0.6)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("offset %d: second open: %v", off, err)
		}
		if got := r2.Len(); got != 3 {
			t.Fatalf("offset %d: after re-append entries = %d, want 3", off, got)
		}
		r2.Close()
	}
}

// TestTornHeader covers a crash inside the 8-byte segment header itself.
func TestTornHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), []byte("WOM"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("entries from torn header = %d", s.Len())
	}
	mustPut(t, s, "aaa", "fig5", 0.8)
	s.Close()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("append after header repair lost: %d", r.Len())
	}
}

// TestInteriorCorruption: damage in a non-final segment is not a torn tail
// and must refuse to open rather than silently drop history.
func TestInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 256}) // force rotation
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustPut(t, s, string(rune('a'+i)), "fig5", 0.8)
	}
	if head, _ := s.seg.Head(); head < 2 {
		t.Fatalf("expected rotation, still on segment %d", head)
	}
	s.Close()

	// Flip a payload byte in the first (non-final) segment.
	p := filepath.Join(dir, "seg-00000001.log")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption open = %v, want ErrCorrupt", err)
	}
}

// TestSegmentRotation verifies multi-segment stores replay completely.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustPut(t, s, string(rune('a'+i)), "fig5", float64(i))
	}
	s.Close()
	segs, err := s.seg.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("segments = %d, want rotation", len(segs))
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("replayed %d entries across segments, want %d", r.Len(), n)
	}
	// New appends land in the last segment, not a fresh one.
	mustPut(t, r, "zz", "fig6", 1)
	if head, size := r.seg.Head(); head != segs[len(segs)-1] && size == 0 {
		t.Errorf("append head wrong: seg %d size %d", head, size)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "aaa", "fig5", 0.80)
	mustPut(t, s, "bbb", "fig6", 0.90)
	b, err := s.PinBaseline("v1")
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged store: no regressions even at zero tolerance.
	cmp, err := Compare(b, s.Entries(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 0 || cmp.Checked != 2 {
		t.Fatalf("clean compare = %+v", cmp)
	}

	// Drift one metric by 5%: caught at 1% tolerance, passed at 10%.
	mustPut(t, s, "aaa", "fig5", 0.84)
	cmp, err = Compare(b, s.Entries(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 2 { // MeanWrite.1 and Rows.0.Write.1
		t.Fatalf("regressions = %+v", cmp.Regressions)
	}
	d := cmp.Regressions[0]
	if d.Key != "aaa" || d.Base == nil || d.Current == nil || *d.Base != 0.80 || *d.Current != 0.84 {
		t.Errorf("delta = %+v", d)
	}
	cmp, err = Compare(b, s.Entries(), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 0 {
		t.Errorf("10%% tolerance still flags: %+v", cmp.Regressions)
	}

	// Shape drift: a vanished metric is always a regression.
	if err := s.Put(Entry{
		Key: "bbb", Experiment: "fig6",
		Params: json.RawMessage(`{}`),
		Result: &sim.Result{Experiment: "fig6", Data: map[string]any{"MeanWrite": []any{1.0}}},
	}); err != nil {
		t.Fatal(err)
	}
	cmp, err = Compare(b, s.Entries(), 10) // huge tolerance: only drift shows
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) == 0 || !cmp.Regressions[0].ShapeDrift() {
		t.Fatalf("shape drift not flagged: %+v", cmp.Regressions)
	}

	// A key absent from the store is reported missing, not failed.
	cmp, err = Compare(b, s.Entries()[:1], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.MissingKeys) != 1 {
		t.Errorf("missing keys = %v", cmp.MissingKeys)
	}
}

func TestFlatten(t *testing.T) {
	m := Flatten(map[string]any{
		"a": 1.5,
		"b": []any{2.0, map[string]any{"c": 3.0}},
		"s": "skip",
		"t": true,
		"n": nil,
	})
	want := map[string]float64{"a": 1.5, "b.0": 2.0, "b.1.c": 3.0}
	if len(m) != len(want) {
		t.Fatalf("flatten = %v", m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}
