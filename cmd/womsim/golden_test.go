package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"womcpcm/internal/sim"
	"womcpcm/internal/telemetry"
)

// goldenSeriesDigest and goldenTimelineDigest pin the sha256 of the files
// `womsim -series` and `womsim -timeline` write for
// `-bench qsort -requests 30000 -seed 1` at the CLI defaults (100 µs window,
// timeline limit 250000). A changed digest means the probe stream, the
// telemetry windowing or the trace-event writer changed. goldenDetailDigest
// pins what `womsim -detail qsort -requests 1000` prints: every run's
// summary and the energy comparison.
const (
	goldenSeriesDigest   = "4d9c12d3e6aa618da3d8b9c2d168b65306740e729989c1f149f27c3bbd8ba9d4"
	goldenTimelineDigest = "a9714a7b071110af6100c84f464f5b8f00e6c937657e5b440a80a3e79779c511"
	goldenDetailDigest   = "91113b152f67887d42594652d020219ee07571854fd87390611e2fdbd0b0474c"
)

// goldenParallelism are the worker counts each golden runs at: one, and
// the default (GOMAXPROCS). The architectures simulate in parallel, so a
// digest that holds at both does not depend on which finishes first.
var goldenParallelism = []int{1, 0}

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return digest(raw)
}

func TestGoldenSeriesDigest(t *testing.T) {
	for _, par := range goldenParallelism {
		params := timelineParams()
		params.Parallelism = par
		path := filepath.Join(t.TempDir(), "series.json")
		if err := runSeries(params, path, time.Duration(telemetry.DefaultWindowNs)); err != nil {
			t.Fatal(err)
		}
		if got := fileDigest(t, path); got != goldenSeriesDigest {
			t.Errorf("parallelism %d: -series digest %s, want %s", par, got, goldenSeriesDigest)
		}
	}
}

func TestGoldenTimelineDigest(t *testing.T) {
	for _, par := range goldenParallelism {
		params := timelineParams()
		params.Parallelism = par
		path := filepath.Join(t.TempDir(), "timeline.json")
		if err := runTimeline(params, path, 250000); err != nil {
			t.Fatal(err)
		}
		if got := fileDigest(t, path); got != goldenTimelineDigest {
			t.Errorf("parallelism %d: -timeline digest %s, want %s", par, got, goldenTimelineDigest)
		}
	}
}

func TestGoldenDetailDigest(t *testing.T) {
	for _, par := range goldenParallelism {
		var out bytes.Buffer
		params := sim.Params{Requests: 1000, Seed: 1, Parallelism: par}
		if err := printDetail(&out, params, "qsort"); err != nil {
			t.Fatal(err)
		}
		if got := digest(out.Bytes()); got != goldenDetailDigest {
			t.Errorf("parallelism %d: -detail digest %s, want %s", par, got, goldenDetailDigest)
		}
	}
}
