package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// Golden digests pin the simulator's output bit for bit. Each is the sha256
// of a run's canonical JSON (runDigest) at the paper's default geometry; a
// changed digest means a changed simulation result, so a refactor of the
// event loop must reproduce every one of them unchanged.

// goldenRequests is the trace length of every golden run.
const goldenRequests = 2000

// goldenSeed is the workload generator seed of every golden run.
const goldenSeed = 1

// goldenProfiles takes one benchmark per suite, so the pinned runs cover
// each suite's access mix.
var goldenProfiles = []string{"400.perlbench", "qsort", "ocean"}

// goldenArchDigests is indexed [profile][arch] in goldenProfiles × Arches()
// order.
var goldenArchDigests = [][]string{
	{ // 400.perlbench
		"b565469dab5486fc5f045b82682056f3a19f2fbe20f807f6a90b7482fe5d72cd",
		"622b91e3e309a91dd8c0e7395fb174f017719b1c617d9b4df8fc12fc57493c19",
		"167f1ba9e0f4ff931020aa2163af4f173c6cf0f92fe899dd24c9e8e0570e5ab8",
		"6d0ed3c69a343072e1a731354ce26027bc8434571100728f6f668432fa7ab7a9",
	},
	{ // qsort
		"b7c727dfc7213a0ab5244aa7d9618618fef1bd203cba2bc6b3010bf81af96bb4",
		"c716c35cfc89b02ba3194d3d1bfc9141ca05d15ce23d9238a77eb09b5c204d98",
		"74a9c19eb0910728cb4dc494feb04f761281a8134b08bba3fa1b1286037746c4",
		"626528ca459868f52585d4b09a13f90658e29e783151460efa996f7c4b19a4b5",
	},
	{ // ocean
		"a79f963eddce2703788a03a4a9710e5215b4771c9b6e6a19bbc3ee8f6f249e62",
		"f9ef80a905b0c73a08a82f0871ce3323c902a22c07056b3ba23fa41b4a7454a7",
		"d9884f8626816053d155ab7554cc65b3a79a8594c3125378ee605f6f2576419d",
		"16786a75b86c97e8f0cecb3eae9ad528c0d2b72449051cd63483e1d6bed2cea1",
	},
}

// goldenMultiChannelDigest pins a 4-channel PCM-refresh run of qsort.
const goldenMultiChannelDigest = "327b617e01b14738f22244631872ad4727d7547b7c085bb84d012a681f01e259"

// runDigest hashes a run's canonical JSON: every exported stats.Run field
// plus both latency histograms, which json.Marshal of a Latency omits.
func runDigest(t *testing.T, run *stats.Run) string {
	t.Helper()
	doc, err := json.Marshal(struct {
		Run          *stats.Run
		ReadLatency  stats.LatencySnapshot
		WriteLatency stats.LatencySnapshot
	}{run, run.ReadLatency.Snapshot(), run.WriteLatency.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

func goldenTrace(t *testing.T, name string, n int) []trace.Record {
	t.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, DefaultOptions().Geometry, goldenSeed, n)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestGoldenArchDigests(t *testing.T) {
	for i, name := range goldenProfiles {
		recs := goldenTrace(t, name, goldenRequests)
		for j, a := range Arches() {
			sys, err := NewSystem(a, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			run, err := sys.SimulateRecords(recs)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := runDigest(t, run), goldenArchDigests[i][j]; got != want {
				t.Errorf("%s on %s: digest %s, want %s", name, a, got, want)
			}
		}
	}
}

func TestGoldenMultiChannelDigest(t *testing.T) {
	sys, err := NewSystem(Refresh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.NewMultiChannel(sys.Config(), 4)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mc.Run(trace.NewSliceSource(goldenTrace(t, "qsort", 4*goldenRequests)))
	if err != nil {
		t.Fatal(err)
	}
	if got := runDigest(t, run); got != goldenMultiChannelDigest {
		t.Errorf("4-channel %s: digest %s, want %s", Refresh, got, goldenMultiChannelDigest)
	}
}
