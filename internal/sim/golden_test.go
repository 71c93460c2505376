package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"womcpcm/internal/core"
	"womcpcm/internal/pcm"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/workload"
)

// figAll is the experiment list `womsim -fig all` runs.
var figAll = []string{"fig5", "fig6", "fig7", "rth", "org", "pausing", "code", "sched", "hybrid", "channels"}

// goldenFigDigests pins the sha256 of `womsim -fig all -json -requests 1000
// -seed S` standard output, rendered here through the registry exactly as
// womsim renders it, for the default seed and a held-out one. A changed
// digest means changed simulator output.
var goldenFigDigests = map[int64]string{
	1:    "e2afffb19445eac4fab7c743413e5bcc85b2c8ee117f52bfc53395b292a84041",
	7919: "e554e74ad3bb4c14268ab50270baf05c18756e83e779e5b597de58c1898eee42",
}

func TestGoldenFigAllDigests(t *testing.T) {
	for seed, want := range goldenFigDigests {
		var results []*Result
		for _, name := range figAll {
			exp, err := LookupExperiment(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exp.Run(context.Background(), Params{Requests: 1000, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			results = append(results, res)
		}
		if got := figDigest(t, results); got != want {
			t.Errorf("seed %d: -fig all digest %s, want %s", seed, got, want)
		}
	}
}

// TestGoldenFigAllPlannedDigests: one sim.Run call over all ten
// experiments, which simulates each shared cell once, renders the same
// pinned bytes as running them one by one, at any parallelism.
func TestGoldenFigAllPlannedDigests(t *testing.T) {
	exps := make([]Experiment, len(figAll))
	for i, name := range figAll {
		var err error
		if exps[i], err = LookupExperiment(name); err != nil {
			t.Fatal(err)
		}
	}
	for seed, want := range goldenFigDigests {
		for _, par := range []int{1, 4} {
			results, err := Run(context.Background(), Params{Requests: 1000, Seed: seed, Parallelism: par}, exps...)
			if err != nil {
				t.Fatalf("seed %d, parallelism %d: %v", seed, par, err)
			}
			if got := figDigest(t, results); got != want {
				t.Errorf("seed %d, parallelism %d: planned -fig all digest %s, want %s", seed, par, got, want)
			}
		}
	}
}

// figDigest hashes results rendered exactly as `womsim -fig ... -json`
// prints them.
func figDigest(t *testing.T, results []*Result) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	for _, res := range results {
		if err := enc.Encode(map[string]any{"experiment": res.Experiment, "result": res.Data}); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenReplayTelemetryDigest pins the sha256 of sim.Replay's WithTelemetry
// windows for 20000 qsort records (seed 1, default geometry and window):
// each architecture's windows in index order, JSON-encoded, concatenated in
// core.Arches() order.
const goldenReplayTelemetryDigest = "a003c7f49f8a6b15d32c294ec43d725baa5782eb7cbb1931c43c532c7a49fccf"

func TestGoldenReplayTelemetryDigest(t *testing.T) {
	p, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, pcm.DefaultGeometry(), 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		windows = map[string][]telemetry.Window{}
	)
	ctx := WithTelemetry(context.Background(), func(arch string, w telemetry.Window) {
		mu.Lock()
		windows[arch] = append(windows[arch], w)
		mu.Unlock()
	}, 0)
	if _, err := Replay(ExpConfig{Ctx: ctx}, "golden", recs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, a := range core.Arches() {
		ws := windows[a.String()]
		if len(ws) == 0 {
			t.Fatalf("%s: no telemetry windows", a)
		}
		if err := enc.Encode(map[string]any{"arch": a.String(), "windows": ws}); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenReplayTelemetryDigest {
		t.Errorf("replay telemetry digest %s, want %s", got, goldenReplayTelemetryDigest)
	}
}
