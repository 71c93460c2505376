package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
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
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		for _, name := range figAll {
			exp, err := LookupExperiment(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exp.Run(context.Background(), Params{Requests: 1000, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			if err := enc.Encode(map[string]any{"experiment": res.Experiment, "result": res.Data}); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("seed %d: -fig all digest %s, want %s", seed, got, want)
		}
	}
}
