package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
)

// fuzzConfigs enumerates every architectural feature combination the
// controller supports.
func fuzzConfigs() []Config {
	var cfgs []Config
	add := func(c Config) {
		c.Geometry = testGeometry()
		c.Timing = pcm.DefaultTiming()
		cfgs = append(cfgs, c)
	}
	scheds := []*SchedConfig{
		nil,
		{ReadPriority: true},
		{ReadPriority: true, WriteCancellation: true},
		{ReadPriority: true, WriteCancellation: true, MaxCancels: 1},
	}
	for _, sched := range scheds {
		add(Config{Sched: sched})
		add(Config{WOM: DefaultWOM(), Sched: sched})
		add(Config{WOM: freshWOM(), Sched: sched})
		add(Config{WOM: &WOMConfig{Rewrites: 1}, Sched: sched})
		add(Config{WOM: &WOMConfig{Rewrites: 4, Org: HiddenPage}, Sched: sched})
		add(Config{WOM: DefaultWOM(), Refresh: DefaultRefresh(), Sched: sched})
		add(Config{WOM: DefaultWOM(), Refresh: &RefreshConfig{ThresholdPct: 50, TableSize: 2, NoPausing: true}, Sched: sched})
		add(Config{WOM: DefaultWOM(), Refresh: &RefreshConfig{ThresholdPct: 0, TableSize: 5, MaxRanksPerTick: 1}, Sched: sched})
		add(Config{Cache: DefaultCache(), Sched: sched})
		add(Config{Cache: &CacheConfig{Rewrites: 1, TableSize: 1}, Sched: sched})
		add(Config{Cache: &CacheConfig{Technology: DRAMCache}, Sched: sched})
	}
	return cfgs
}

// fuzzTrace builds an adversarial random trace: mixed ops, bursts, hot
// rows, repeated addresses, simultaneous arrivals.
func fuzzTrace(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	g := testGeometry()
	recs := make([]trace.Record, 0, n)
	now := int64(0)
	for len(recs) < n {
		// Bursts of 1..8 arrivals, sometimes at the same instant.
		burst := 1 + rng.Intn(8)
		for b := 0; b < burst && len(recs) < n; b++ {
			if rng.Intn(3) != 0 {
				now += int64(rng.Intn(120))
			}
			op := trace.Write
			if rng.Intn(100) < 60 {
				op = trace.Read
			}
			var addr uint64
			switch rng.Intn(3) {
			case 0: // hot row set
				addr = uint64(rng.Intn(8)) * uint64(g.RowBytes())
			case 1: // anywhere
				addr = uint64(rng.Int63n(int64(g.CapacityBytes())))
			default: // sequential-ish
				addr = uint64(len(recs)) * 64
			}
			recs = append(recs, trace.Record{Op: op, Addr: addr, Time: now})
		}
		now += int64(rng.Intn(4000))
	}
	return recs
}

// TestControllerInvariantsUnderFuzz drives every feature combination with
// adversarial traces and checks the invariants that must hold regardless
// of configuration:
//
//   - every demand request completes exactly once, with non-negative
//     latency bounded by the simulation span;
//   - read/write sample counts match the trace's op mix;
//   - class totals are consistent;
//   - the simulator terminates with nothing in flight.
func TestControllerInvariantsUnderFuzz(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := fuzzTrace(seed, 2500)
		var reads, writes uint64
		for _, r := range recs {
			if r.Op == trace.Read {
				reads++
			} else {
				writes++
			}
		}
		for i, cfg := range fuzzConfigs() {
			name := fmt.Sprintf("seed %d cfg %d (%s)", seed, i, cfg.ArchName())
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run, err := ctrl.Run(trace.NewSliceSource(recs))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ctrl.inFlight != 0 {
				t.Fatalf("%s: %d requests still in flight", name, ctrl.inFlight)
			}
			if run.ReadLatency.Count != reads || run.WriteLatency.Count != writes {
				t.Fatalf("%s: latency samples %d/%d, want %d/%d", name,
					run.ReadLatency.Count, run.WriteLatency.Count, reads, writes)
			}
			if run.ReadLatency.Min < 0 || run.WriteLatency.Min < 0 {
				t.Fatalf("%s: negative latency", name)
			}
			span := run.SimulatedNs
			if run.ReadLatency.Max > span || run.WriteLatency.Max > span {
				t.Fatalf("%s: latency exceeds simulated span %d", name, span)
			}
			gotReads := run.Classes[stats.ReadArray] + run.Classes[stats.ReadRowHit] + run.Classes[stats.ReadCacheHit]
			if gotReads != reads {
				t.Fatalf("%s: read classes %d, want %d", name, gotReads, reads)
			}
			if cfg.Cache != nil {
				gotWrites := run.Classes[stats.WriteCacheHit] + run.Classes[stats.WriteCacheMiss]
				if gotWrites != writes {
					t.Fatalf("%s: cache write classes %d, want %d", name, gotWrites, writes)
				}
				if run.Classes[stats.WriteBaseline] != run.VictimWrites {
					t.Fatalf("%s: victims %d vs main writes %d", name,
						run.VictimWrites, run.Classes[stats.WriteBaseline])
				}
			} else {
				gotWrites := run.Classes[stats.WriteBaseline] + run.Classes[stats.WriteFast] + run.Classes[stats.WriteAlpha]
				if gotWrites != writes {
					t.Fatalf("%s: write classes %d, want %d", name, gotWrites, writes)
				}
			}
			if cfg.Sched == nil || !cfg.Sched.WriteCancellation {
				if run.WriteCancels != 0 {
					t.Fatalf("%s: cancellations without the feature", name)
				}
			}
			if cfg.Refresh == nil && (cfg.Cache == nil || cfg.Cache.Technology == DRAMCache) {
				if run.Refreshes+run.RefreshAborts != 0 {
					t.Fatalf("%s: refresh activity without the feature", name)
				}
			}
		}
	}
}

// TestControllerFuzzDeterminism: every fuzz configuration is bit-for-bit
// deterministic.
func TestControllerFuzzDeterminism(t *testing.T) {
	recs := fuzzTrace(42, 1500)
	for i, cfg := range fuzzConfigs() {
		a := runTrace(t, cfg, recs)
		b := runTrace(t, cfg, recs)
		if a.WriteLatency != b.WriteLatency || a.ReadLatency != b.ReadLatency ||
			a.Classes != b.Classes || a.Refreshes != b.Refreshes || a.WriteCancels != b.WriteCancels {
			t.Errorf("cfg %d (%s): runs differ", i, cfg.ArchName())
		}
	}
}

// walkRank is the reference idle-rank and r_th check the per-rank counters
// replace: a walk over the rank's banks counting the ones that are not
// quiescent and the ones with a refresh candidate.
func walkRank(c *Controller, rank int, now Clock) (busy, cands int32, eligible bool) {
	idle := true
	banks := c.rankBanks(rank)
	for i := range banks {
		s := &banks[i]
		if !s.idleAt(now) {
			idle = false
		}
		if !s.quiescent() {
			busy++
		}
		if s.wom.hasCandidates() {
			cands++
		}
	}
	need := c.cfg.Refresh.CandidateBanks(c.cfg.Geometry.BanksPerRank)
	return busy, cands, idle && int(cands) >= need
}

// TestEligibilityCountersMatchWalk drives every feature combination with
// adversarial traces and, at every refresh tick, checks the per-rank
// counters against the reference walk, and that no quiescent bank or cache
// array has a busyUntil in the future (the invariant that lets
// rankEligible skip that test). At the default timing a refresh ends long
// before the next tick, so every refreshing combination also runs with a
// 100 ns tick, shorter than any refresh: ticks then land while refreshes
// are pending.
func TestEligibilityCountersMatchWalk(t *testing.T) {
	cfgs := fuzzConfigs()
	for _, cfg := range fuzzConfigs() {
		if cfg.refreshEnabled() {
			cfg.Timing.RefreshPeriod = 100
			cfgs = append(cfgs, cfg)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		recs := fuzzTrace(seed, 2500)
		for i, cfg := range cfgs {
			name := fmt.Sprintf("seed %d cfg %d (%s)", seed, i, cfg.ArchName())
			c, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ticks, eligible := 0, 0
			c.onTick = func(now Clock) {
				ticks++
				for _, servers := range [][]server{c.banks, c.caches} {
					for j := range servers {
						if s := &servers[j]; s.quiescent() && s.busyUntil > now {
							t.Fatalf("%s: quiescent server %d/%d busy until %d at tick %d",
								name, s.rank, s.idx, s.busyUntil, now)
						}
					}
				}
				if cfg.Refresh == nil {
					return
				}
				for r := range c.ranks {
					busy, cands, want := walkRank(c, r, now)
					if got := c.ranks[r]; got.busy != busy || got.cands != cands || c.rankEligible(r) != want {
						t.Fatalf("%s: rank %d at tick %d: counters %+v eligible %v, walk busy %d cands %d eligible %v",
							name, r, now, got, c.rankEligible(r), busy, cands, want)
					}
					if want {
						eligible++
					}
				}
			}
			if _, err := c.Run(trace.NewSliceSource(recs)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cfg.refreshEnabled() && ticks == 0 {
				t.Fatalf("%s: no refresh tick ran", name)
			}
			if cfg.Refresh != nil && eligible == 0 {
				t.Fatalf("%s: no rank was ever eligible, so the check saw only one answer", name)
			}
		}
	}
}
