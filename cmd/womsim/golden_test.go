package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"womcpcm/internal/telemetry"
)

// goldenSeriesDigest and goldenTimelineDigest pin the sha256 of the files
// `womsim -series` and `womsim -timeline` write for
// `-bench qsort -requests 30000 -seed 1` at the CLI defaults (100 µs window,
// timeline limit 250000). A changed digest means the probe stream, the
// telemetry windowing or the trace-event writer changed.
const (
	goldenSeriesDigest   = "4d9c12d3e6aa618da3d8b9c2d168b65306740e729989c1f149f27c3bbd8ba9d4"
	goldenTimelineDigest = "a9714a7b071110af6100c84f464f5b8f00e6c937657e5b440a80a3e79779c511"
)

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestGoldenSeriesDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.json")
	if err := runSeries(timelineParams(), path, time.Duration(telemetry.DefaultWindowNs)); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, path); got != goldenSeriesDigest {
		t.Errorf("-series digest %s, want %s", got, goldenSeriesDigest)
	}
}

func TestGoldenTimelineDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.json")
	if err := runTimeline(timelineParams(), path, 250000); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, path); got != goldenTimelineDigest {
		t.Errorf("-timeline digest %s, want %s", got, goldenTimelineDigest)
	}
}
