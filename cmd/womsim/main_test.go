package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"womcpcm/internal/resultstore"
	"womcpcm/internal/sim"
)

// TestRunFiguresMixedCache: with fig6 and rth already cached, `-fig all
// -json -cache` serves exactly those two from the store, runs the other
// eight as one plan, stores them under that call's wall time, and prints
// the same bytes as an uncached run.
func TestRunFiguresMixedCache(t *testing.T) {
	params := sim.Params{Requests: 1000, Bench: []string{"qsort"}}
	var want bytes.Buffer
	if err := runFigures(&want, io.Discard, nil, figAll, params, true, false); err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := runFigures(io.Discard, io.Discard, store, []string{"fig6", "rth"}, params, true, false); err != nil {
		t.Fatal(err)
	}
	cached := map[string]bool{}
	for _, e := range store.Entries() {
		cached[e.Key] = true
	}

	var out, stderr bytes.Buffer
	if err := runFigures(&out, &stderr, store, figAll, params, true, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("cached -fig all output differs from an uncached run")
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "fig6 served from cache") ||
		!strings.Contains(lines[1], "rth served from cache") {
		t.Errorf("stderr names the wrong hits:\n%s", stderr.String())
	}
	var stored []string
	var wall int64
	for _, e := range store.Entries() {
		if cached[e.Key] {
			continue
		}
		stored = append(stored, e.Experiment)
		if wall == 0 {
			wall = e.WallNs
		}
		if e.WallNs <= 0 || e.WallNs != wall {
			t.Errorf("%s stored with WallNs %d, want the planned call's %d", e.Experiment, e.WallNs, wall)
		}
	}
	if len(stored) != 8 || store.Len() != 10 {
		t.Errorf("stored %v (store holds %d), want the eight misses", stored, store.Len())
	}
}
