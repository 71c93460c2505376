package memctrl

import (
	"reflect"
	"sync/atomic"
	"testing"

	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

func TestMultiChannelValidation(t *testing.T) {
	cfg := testConfig(nil, nil, nil)
	for _, n := range []int{0, -1, 3, 6} {
		if _, err := NewMultiChannel(cfg, n); err == nil {
			t.Errorf("accepted %d channels", n)
		}
	}
	mc, err := NewMultiChannel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Channels() != 4 {
		t.Errorf("Channels() = %d", mc.Channels())
	}
}

// TestChannelOfStriping: consecutive lines round-robin across channels and
// the local address squeezes the channel bits out losslessly.
func TestChannelOfStriping(t *testing.T) {
	cfg := testConfig(nil, nil, nil)
	mc, err := NewMultiChannel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	locals := map[uint64]int{}
	for line := uint64(0); line < 16; line++ {
		ch, local := mc.channelOf(line * 64)
		if ch != int(line%4) {
			t.Errorf("line %d → channel %d, want %d", line, ch, line%4)
		}
		seen[ch] = true
		// Within one channel, locals must be distinct and dense.
		if prev, dup := locals[local<<8|uint64(ch)]; dup {
			t.Errorf("collision: %d", prev)
		}
		locals[local<<8|uint64(ch)] = int(line)
	}
	if len(seen) != 4 {
		t.Errorf("striping hit %d channels", len(seen))
	}
	// Byte offsets within a line stay put.
	if _, local := mc.channelOf(64 + 13); local%64 != 13 {
		t.Error("line offset not preserved")
	}
	// Single channel passes addresses through untouched.
	one, err := NewMultiChannel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch, local := one.channelOf(0xdeadbeef); ch != 0 || local != 0xdeadbeef {
		t.Error("single channel rewrote the address")
	}
}

// TestMultiChannelOneEqualsPlain: a 1-channel MultiChannel is bit-for-bit
// the plain controller.
func TestMultiChannelOneEqualsPlain(t *testing.T) {
	p, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, testGeometry(), 77, 3000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(DefaultWOM(), DefaultRefresh(), nil)
	plain := runTrace(t, cfg, recs)
	mc, err := NewMultiChannel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := mc.Run(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if plain.WriteLatency != multi.WriteLatency || plain.ReadLatency != multi.ReadLatency ||
		plain.Classes != multi.Classes || plain.Refreshes != multi.Refreshes {
		t.Error("1-channel MultiChannel differs from plain controller")
	}
}

// TestMultiChannelScaling: striping a contended trace over more channels
// reduces latency and conserves every request.
func TestMultiChannelScaling(t *testing.T) {
	p, err := workload.ProfileByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, testGeometry(), 5, 8000)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes uint64
	for _, r := range recs {
		if r.Op == trace.Read {
			reads++
		} else {
			writes++
		}
	}
	cfg := testConfig(nil, nil, nil)
	means := map[int]float64{}
	for _, n := range []int{1, 4} {
		mc, err := NewMultiChannel(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		run, err := mc.Run(trace.NewSliceSource(recs))
		if err != nil {
			t.Fatal(err)
		}
		if run.ReadLatency.Count != reads || run.WriteLatency.Count != writes {
			t.Fatalf("%d channels: samples %d/%d, want %d/%d",
				n, run.ReadLatency.Count, run.WriteLatency.Count, reads, writes)
		}
		means[n] = run.WriteLatency.Mean() + run.ReadLatency.Mean()
		if n > 1 && run.Arch == "" {
			t.Error("merged run lost its label")
		}
	}
	if means[4] > means[1] {
		t.Errorf("4 channels (%.1f) slower than 1 (%.1f)", means[4], means[1])
	}
}

// TestMultiChannelMergesEvents: the merged run's Events is the sum of the
// per-channel controller runs and agrees with the shared Config.Events
// counter every channel flushes into.
func TestMultiChannelMergesEvents(t *testing.T) {
	p, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, testGeometry(), 11, 6000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(DefaultWOM(), DefaultRefresh(), nil)
	var shared atomic.Int64
	cfg.Events = &shared
	mc, err := NewMultiChannel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mc.Run(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}

	subs := make([][]trace.Record, 4)
	for _, r := range recs {
		ch, local := mc.channelOf(r.Addr)
		r.Addr = local
		subs[ch] = append(subs[ch], r)
	}
	plain := cfg
	plain.Events = nil
	var sum uint64
	for ch, sub := range subs {
		if len(sub) == 0 {
			t.Fatalf("channel %d got no records", ch)
		}
		sum += runTrace(t, plain, sub).Events
	}
	if merged.Events == 0 || merged.Events != sum {
		t.Errorf("merged Events = %d, want per-channel sum %d", merged.Events, sum)
	}
	if got := uint64(shared.Load()); got != merged.Events {
		t.Errorf("shared Config.Events = %d, merged Events = %d", got, merged.Events)
	}
}

// TestRunChannelsOnBorrowedController: RunChannels on a controller that
// last ran another architecture gives MultiChannel.Run's result exactly,
// reads the records without changing them, and rejects a bad channel count.
func TestRunChannelsOnBorrowedController(t *testing.T) {
	p, err := workload.ProfileByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := workload.Generate(p, testGeometry(), 23, 5000)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]trace.Record(nil), recs...)
	ctrl, err := New(testConfig(nil, nil, DefaultCache()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(trace.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(DefaultWOM(), DefaultRefresh(), nil)
	for _, n := range []int{2, 4} {
		mc, err := NewMultiChannel(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mc.Run(trace.NewSliceSource(recs))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunChannels(ctrl, cfg, n, recs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d channels: RunChannels on a borrowed controller differs from MultiChannel.Run", n)
		}
	}
	if !reflect.DeepEqual(recs, orig) {
		t.Error("RunChannels changed the records it read")
	}
	if _, err := RunChannels(ctrl, cfg, 3, recs); err == nil {
		t.Error("RunChannels accepted 3 channels")
	}
}
