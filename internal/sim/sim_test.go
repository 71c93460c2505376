package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"womcpcm/internal/core"
	"womcpcm/internal/pcm"
	"womcpcm/internal/workload"
)

// fastConfig keeps experiment tests quick: a reduced geometry, two
// benchmarks, short traces.
func fastConfig(t *testing.T) ExpConfig {
	t.Helper()
	qsort, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	h264, err := workload.ProfileByName("464.h264ref")
	if err != nil {
		t.Fatal(err)
	}
	return ExpConfig{
		Geometry: pcm.Geometry{Ranks: 4, BanksPerRank: 32, RowsPerBank: 2048,
			ColsPerRow: 256, BitsPerCol: 4, Devices: 16},
		Requests: 20000,
		Seed:     7,
		Profiles: []workload.Profile{qsort, h264},
	}
}

func TestFig5ShapeAndAverages(t *testing.T) {
	res, err := Fig5(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Write[core.Baseline] != 1 || row.Read[core.Baseline] != 1 {
			t.Errorf("%s: baseline not normalized to 1", row.Benchmark)
		}
		// The paper's headline ordering per benchmark: every architecture
		// beats baseline on writes, and refresh beats plain WOM.
		for _, a := range []core.Arch{core.WOMCode, core.Refresh, core.WCPCM} {
			if row.Write[a] >= 1 {
				t.Errorf("%s: %s write %.3f not below baseline", row.Benchmark, a, row.Write[a])
			}
		}
		if row.Write[core.Refresh] >= row.Write[core.WOMCode] {
			t.Errorf("%s: refresh %.3f not better than WOM %.3f",
				row.Benchmark, row.Write[core.Refresh], row.Write[core.WOMCode])
		}
		if row.AlphaFraction[core.Refresh] >= row.AlphaFraction[core.WOMCode] {
			t.Errorf("%s: refresh α-fraction %.3f not below WOM %.3f",
				row.Benchmark, row.AlphaFraction[core.Refresh], row.AlphaFraction[core.WOMCode])
		}
		if row.CacheHitRate <= 0 || row.CacheHitRate > 1 {
			t.Errorf("%s: cache hit rate %.3f out of range", row.Benchmark, row.CacheHitRate)
		}
	}
	if res.WriteReduction(core.Refresh) <= res.WriteReduction(core.WOMCode) {
		t.Error("average refresh write reduction not above WOM")
	}
	if res.ReadReduction(core.WOMCode) <= 0 {
		t.Error("WOM read reduction not positive")
	}
	out := RenderFig5(res)
	for _, want := range []string{"Fig. 5(a)", "Fig. 5(b)", "qsort", "464.h264ref", "average", "20.1%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig6HitRatesFall(t *testing.T) {
	res, err := Fig6(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BanksPerRank) != 4 || len(res.Mean) != 4 {
		t.Fatalf("bank sweep shape: %v", res.BanksPerRank)
	}
	for i := 1; i < len(res.Mean); i++ {
		if res.Mean[i] >= res.Mean[i-1] {
			t.Errorf("mean hit rate not decreasing: %v", res.Mean)
		}
	}
	for _, row := range res.Rows {
		if row.HitRate[0] <= row.HitRate[len(row.HitRate)-1] {
			t.Errorf("%s: hit rate did not fall from 4 to 32 banks/rank: %v", row.Benchmark, row.HitRate)
		}
	}
	if out := RenderFig6(res); !strings.Contains(out, "banks/rank") {
		t.Error("render broken")
	}
}

func TestFig7Normalization(t *testing.T) {
	res, err := Fig7(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.NormWrite[0] != 1 {
			t.Errorf("%s: 4 banks/rank not normalized to 1", row.Benchmark)
		}
		for _, v := range row.NormWrite {
			if v <= 0 || v > 2 {
				t.Errorf("%s: implausible normalized latency %v", row.Benchmark, v)
			}
		}
	}
	if out := RenderFig7(res); !strings.Contains(out, "normalized to 4 banks/rank") {
		t.Error("render broken")
	}
}

func TestRthSweep(t *testing.T) {
	res, err := RthSweep(fastConfig(t), []float64{0, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NormWrite) != 2 {
		t.Fatal("sweep shape")
	}
	// A permissive threshold must refresh at least as often as a strict one
	// and never lose on write latency.
	if res.Refreshes[0] < res.Refreshes[1] {
		t.Errorf("refreshes: r_th=0 %d < r_th=50 %d", res.Refreshes[0], res.Refreshes[1])
	}
	if res.NormWrite[0] > res.NormWrite[1]+0.02 {
		t.Errorf("r_th=0 write latency %.3f worse than r_th=50 %.3f", res.NormWrite[0], res.NormWrite[1])
	}
	if out := RenderRthSweep(res); !strings.Contains(out, "r_th") {
		t.Error("render broken")
	}
}

func TestOrgAblation(t *testing.T) {
	res, err := OrgAblation(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Hidden-page pays a small penalty over wide-column on both metrics.
	if res.HiddenWrite < res.WideWrite {
		t.Errorf("hidden-page write %.3f below wide-column %.3f", res.HiddenWrite, res.WideWrite)
	}
	if res.HiddenRead < res.WideRead {
		t.Errorf("hidden-page read %.3f below wide-column %.3f", res.HiddenRead, res.WideRead)
	}
	if out := RenderOrgAblation(res); !strings.Contains(out, "wide-column") {
		t.Error("render broken")
	}
}

func TestPausingAblation(t *testing.T) {
	res, err := PausingAblation(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Write pausing must not hurt write latency (it exists to protect
	// demand accesses from refresh blocking).
	if res.WithWrite > res.WithoutWrite+0.02 {
		t.Errorf("pausing write %.3f worse than no pausing %.3f", res.WithWrite, res.WithoutWrite)
	}
	if out := RenderPausingAblation(res); !strings.Contains(out, "pausing") {
		t.Error("render broken")
	}
}

func TestCodeAblation(t *testing.T) {
	res, err := CodeAblation(fastConfig(t), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Bound must decrease with k, and k=2's bound matches §3.2.
	if !(res.Bound[0] > res.Bound[1] && res.Bound[1] > res.Bound[2]) {
		t.Errorf("bounds not decreasing: %v", res.Bound)
	}
	if diff := res.Bound[1] - (2-1+3.75)/(2*3.75); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("k=2 bound = %v", res.Bound[1])
	}
	// Measured latency must improve (or at worst stay) as k grows.
	if res.NormWrite[2] > res.NormWrite[0]+0.02 {
		t.Errorf("k=4 latency %.3f worse than k=1 %.3f", res.NormWrite[2], res.NormWrite[0])
	}
	if out := RenderCodeAblation(res); !strings.Contains(out, "rewrite budget") {
		t.Error("render broken")
	}
}

// TestPaperConstants pins the reference numbers used in reports.
func TestPaperConstants(t *testing.T) {
	if PaperWriteReductionPct[core.Refresh] != 54.9 || PaperReadReductionPct[core.WCPCM] != 44.0 {
		t.Error("paper reference constants drifted")
	}
	if PaperBestWOMBenchmark != "464.h264ref" || PaperWCPCMOverheadPct != 4.7 {
		t.Error("paper callouts drifted")
	}
}

// TestExpConfigDefaults: the zero config normalizes to the paper setup.
func TestExpConfigDefaults(t *testing.T) {
	c := ExpConfig{}.normalize()
	if c.Geometry != pcm.DefaultGeometry() {
		t.Error("geometry default")
	}
	if c.Requests != 200000 || c.Seed != 1 {
		t.Errorf("defaults: requests %d seed %d", c.Requests, c.Seed)
	}
	if len(c.Profiles) != 20 {
		t.Errorf("default profiles = %d", len(c.Profiles))
	}
	if c.Parallelism < 1 {
		t.Error("parallelism default")
	}
}

// TestParMapPropagatesErrors: worker errors surface.
func TestParMapPropagatesErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err := parMapCtx(context.Background(), 10, 4, func(i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	if err := parMapCtx(context.Background(), 0, 4, func(int) error { return nil }); err != nil {
		t.Errorf("empty parMapCtx: %v", err)
	}
}

func TestSchedulingAblation(t *testing.T) {
	res, err := SchedulingAblation(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("variants = %v", res.Variants)
	}
	idx := map[string]int{}
	for i, v := range res.Variants {
		idx[v] = i
	}
	// Scheduling improves reads but not writes; WOM improves writes.
	if res.Read[idx["rd-prio + cancellation"]] >= 1 {
		t.Errorf("cancellation read latency %.3f not below baseline", res.Read[idx["rd-prio + cancellation"]])
	}
	if res.Write[idx["WOM-code PCM"]] >= res.Write[idx["rd-prio + cancellation"]] {
		t.Errorf("WOM write %.3f not below scheduled write %.3f",
			res.Write[idx["WOM-code PCM"]], res.Write[idx["rd-prio + cancellation"]])
	}
	// Coding and scheduling compose: the combination beats WOM alone on reads.
	if res.Read[idx["WOM + scheduling"]] >= res.Read[idx["WOM-code PCM"]] {
		t.Errorf("combined read %.3f not below WOM-only read %.3f",
			res.Read[idx["WOM + scheduling"]], res.Read[idx["WOM-code PCM"]])
	}
	if res.Cancels[idx["rd-prio + cancellation"]] == 0 {
		t.Error("no cancellations recorded")
	}
	if out := RenderSchedulingAblation(res); !strings.Contains(out, "cancellation") {
		t.Error("render broken")
	}
}

func TestHybridAblation(t *testing.T) {
	res, err := HybridAblation(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.HybridWrite >= res.WCPCMWrite {
		t.Errorf("hybrid write %.3f not below WCPCM %.3f (DRAM should be faster)",
			res.HybridWrite, res.WCPCMWrite)
	}
	if res.WCPCMWrite >= 1 || res.HybridWrite >= 1 {
		t.Error("cached architectures not below baseline")
	}
	if res.Retention <= 0 || res.Retention > 1.1 {
		t.Errorf("retention = %.3f out of plausible range", res.Retention)
	}
	if out := RenderHybridAblation(res); !strings.Contains(out, "pure PCM") {
		t.Error("render broken")
	}
}

func TestChannelScaling(t *testing.T) {
	// Needs a longer trace than fastConfig's: striping splits every row's
	// writes across per-channel copies, so short traces double-count
	// cold-start α-writes and mask the scaling benefit.
	cfg := fastConfig(t)
	cfg.Requests = 80000
	res, err := ChannelScaling(cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NormWrite[0] != 1 || res.NormRead[0] != 1 {
		t.Error("1-channel baseline not normalized to 1")
	}
	// More channels never hurt (less per-channel contention).
	if res.NormWrite[1] > 1.01 || res.NormRead[1] > 1.01 {
		t.Errorf("2 channels worse than 1: write %.3f read %.3f", res.NormWrite[1], res.NormRead[1])
	}
	if out := RenderChannelScaling(res); !strings.Contains(out, "channel scaling") {
		t.Error("render broken")
	}
}

// TestCodeBoundEveryProfile checks §3.2's bound per benchmark rather than
// on the mean: on every profile, at every rewrite budget of the code
// ablation, WOM-code PCM's normalized write latency is at least
// (k−1+S)/(kS). A profile under the bound means the timing model lets a
// write finish faster than the code allows.
func TestCodeBoundEveryProfile(t *testing.T) {
	rewrites := []int{1, 2, 4, 8}
	for _, seed := range []int64{1, 7919} {
		cfg := ExpConfig{Requests: 20000, Seed: seed}.normalize()
		pl := codePlan(cfg, rewrites)
		runs, err := runCells(cfg, pl.cells, workload.Generate, nil)
		if err != nil {
			t.Fatal(err)
		}
		stride := len(rewrites) + 1
		for p, prof := range cfg.Profiles {
			row := runs[p*stride : (p+1)*stride]
			for i, k := range rewrites {
				w, _ := row[i+1].Normalized(row[0])
				if bound := codeBound(k, cfg.Timing); w < bound-1e-9 {
					t.Errorf("seed %d, %s, k=%d: normalized write %.4f beats the bound %.4f",
						seed, prof.Name, k, w, bound)
				}
			}
		}
	}
}
