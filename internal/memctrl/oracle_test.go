package memctrl_test

import (
	"fmt"
	"testing"

	"womcpcm/internal/memctrl"
	"womcpcm/internal/pcm"
	"womcpcm/internal/stats"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

// alphaOracle is the closed-form α-write count of a row that receives n
// completed demand writes with rewrite budget k and no refresh. From a
// dirty start the first write finds the row at the limit, so writes 1,
// 1+k, 1+2k, … are α-writes: ⌈n/k⌉. From a fresh start the first k writes
// are in budget, so writes k+1, 2k+1, … are: ⌊(n−1)/k⌋.
func alphaOracle(n, k int, fresh bool) uint64 {
	if fresh {
		return uint64((n - 1) / k)
	}
	return uint64((n + k - 1) / k)
}

// TestAlphaWritesMatchClosedForm checks the timing model's α-write count
// against the per-row closed form on every benchmark profile, for each
// rewrite budget, start state and organization. Without refresh or write
// cancellation every trace write completes exactly once at its row, so the
// count is independent of timing: a row-state key collision, a lost
// generation or a misapplied start rule changes it.
func TestAlphaWritesMatchClosedForm(t *testing.T) {
	g := pcm.DefaultGeometry()
	m, err := pcm.NewAddrMapper(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range workload.Profiles() {
		n := 2000 + 150*i // 2000..4850 requests across the 20 profiles
		recs, err := workload.Generate(p, g, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		writes := make(map[pcm.Location]int)
		for _, r := range recs {
			if r.Op == trace.Write {
				loc := m.Map(r.Addr)
				loc.Col = 0
				writes[loc]++
			}
		}
		for _, k := range []int{1, 2, 4, 8} {
			for _, fresh := range []bool{false, true} {
				var want uint64
				for _, w := range writes {
					want += alphaOracle(w, k, fresh)
				}
				for _, org := range []memctrl.Organization{memctrl.WideColumn, memctrl.HiddenPage} {
					name := fmt.Sprintf("%s/k=%d/fresh=%v/%v", p.Name, k, fresh, org)
					cfg := memctrl.DefaultConfig()
					cfg.WOM = &memctrl.WOMConfig{Rewrites: k, Org: org, FreshArrays: fresh}
					c, err := memctrl.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					run, err := c.Run(trace.NewSliceSource(recs))
					if err != nil {
						t.Fatal(err)
					}
					if got := run.Classes[stats.WriteAlpha]; got != want {
						t.Errorf("%s: %d α-writes, closed form %d over %d rows", name, got, want, len(writes))
					}
				}
			}
		}
	}
}
