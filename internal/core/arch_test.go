package core

import (
	"math"
	"testing"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

func smallGeometry() pcm.Geometry {
	return pcm.Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 256, ColsPerRow: 16, BitsPerCol: 8, Devices: 8}
}

func smallOptions() Options {
	o := DefaultOptions()
	o.Geometry = smallGeometry()
	return o
}

func TestArchNamesAndOrder(t *testing.T) {
	want := []string{"PCM w/o WOM-code", "WOM-code PCM", "PCM-refresh", "WCPCM"}
	arches := Arches()
	if len(arches) != 4 {
		t.Fatalf("Arches() = %v", arches)
	}
	for i, a := range arches {
		if a.String() != want[i] {
			t.Errorf("arch %d = %q, want %q", i, a.String(), want[i])
		}
	}
	if Arch(42).String() != "Arch(42)" {
		t.Error("unknown arch rendering")
	}
}

func TestNewSystemConfigs(t *testing.T) {
	for _, a := range Arches() {
		s, err := NewSystem(a, smallOptions())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if s.Arch() != a {
			t.Errorf("Arch() = %v, want %v", s.Arch(), a)
		}
		cfg := s.Config()
		switch a {
		case Baseline:
			if cfg.WOM != nil || cfg.Refresh != nil || cfg.Cache != nil {
				t.Error("baseline config has features enabled")
			}
		case WOMCode:
			if cfg.WOM == nil || cfg.Refresh != nil || cfg.Cache != nil {
				t.Error("WOM config wrong")
			}
		case Refresh:
			if cfg.WOM == nil || cfg.Refresh == nil {
				t.Error("refresh config wrong")
			}
			if cfg.Refresh.TableSize != 5 || cfg.Refresh.ThresholdPct != 10 {
				t.Errorf("refresh defaults = %+v", cfg.Refresh)
			}
		case WCPCM:
			if cfg.Cache == nil || cfg.WOM != nil {
				t.Error("WCPCM config wrong")
			}
		}
	}
	if _, err := NewSystem(Arch(9), smallOptions()); err == nil {
		t.Error("accepted unknown architecture")
	}
}

// TestZeroOptionsDefaultToPaper: a zero Options must produce the §5 setup.
func TestZeroOptionsDefaultToPaper(t *testing.T) {
	s, err := NewSystem(Refresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Geometry != pcm.DefaultGeometry() {
		t.Error("geometry did not default")
	}
	if cfg.Timing != pcm.DefaultTiming() {
		t.Error("timing did not default")
	}
	if cfg.WOM.Rewrites != 2 {
		t.Errorf("rewrites = %d, want 2", cfg.WOM.Rewrites)
	}
}

func TestMemoryOverhead(t *testing.T) {
	mk := func(a Arch) *System {
		s, err := NewSystem(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := mk(Baseline).MemoryOverhead(0.5); got != 0 {
		t.Errorf("baseline overhead = %v", got)
	}
	if got := mk(WOMCode).MemoryOverhead(0.5); got != 0.5 {
		t.Errorf("WOM overhead = %v", got)
	}
	// The §4 claim: 1.5/32 = 4.6875 % ≈ 4.7 %.
	if got := mk(WCPCM).MemoryOverhead(0.5); math.Abs(got-0.046875) > 1e-12 {
		t.Errorf("WCPCM overhead = %v, want 0.046875", got)
	}
	// The closed form (1+0.5)/N_bank holds at every bank count, not only
	// the paper's 32.
	for _, banks := range []int{8, 16, 32, 64} {
		g := pcm.DefaultGeometry()
		g.BanksPerRank = banks
		s, err := NewSystem(WCPCM, Options{Geometry: g})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.MemoryOverhead(0.5), (1+0.5)/float64(banks); math.Abs(got-want) > 1e-12 {
			t.Errorf("WCPCM overhead at %d banks/rank = %v, want %v", banks, got, want)
		}
	}
}

// TestSystemsReproduceOrdering is the miniature Fig. 5 shape check: on a
// rewrite-friendly workload, every WOM architecture beats baseline on write
// latency, and PCM-refresh is the best. The embedded qsort profile keeps
// per-rank traffic low enough that the 2-rank test geometry does not
// bottleneck the single WOM-cache array (the full-geometry experiment in
// internal/sim uses the paper's 16 ranks).
func TestSystemsReproduceOrdering(t *testing.T) {
	p, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, smallGeometry(), 17, 20000)
	if err != nil {
		t.Fatal(err)
	}
	means := map[Arch]float64{}
	for _, a := range Arches() {
		s, err := NewSystem(a, smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.SimulateRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		means[a] = run.WriteLatency.Mean()
	}
	if !(means[Refresh] < means[WOMCode] && means[WOMCode] < means[Baseline]) {
		t.Errorf("write latency ordering violated: refresh %.1f, wom %.1f, base %.1f",
			means[Refresh], means[WOMCode], means[Baseline])
	}
	if means[WCPCM] >= means[Baseline] {
		t.Errorf("WCPCM %.1f not better than baseline %.1f", means[WCPCM], means[Baseline])
	}
}

// TestSystemReusable: Simulate twice on one System gives identical results.
func TestSystemReusable(t *testing.T) {
	p, _ := workload.ProfileByName("qsort")
	recs, err := workload.Generate(p, smallGeometry(), 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(WCPCM, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.SimulateRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SimulateRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.WriteLatency.Mean() != b.WriteLatency.Mean() || a.CacheHits != b.CacheHits {
		t.Error("System.Simulate not reusable/deterministic")
	}
}

func TestSystemHiddenPageOption(t *testing.T) {
	o := smallOptions()
	o.Organization = memctrl.HiddenPage
	o.FreshArrays = true // factory-erased: the cold write is in budget
	s, err := NewSystem(WOMCode, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().WOM.Org != memctrl.HiddenPage {
		t.Error("organization option not applied")
	}
	recs := []trace.Record{{Op: trace.Write, Addr: 0, Time: 0}}
	run, err := s.SimulateRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Activation 27 + fast program 40 + column 15 + burst 5 + hidden-page
	// burst 5.
	if run.WriteLatency.Mean() != 92 {
		t.Errorf("hidden-page write latency = %v, want 92", run.WriteLatency.Mean())
	}
}
