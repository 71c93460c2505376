package memctrl

import (
	"testing"

	"womcpcm/internal/pcm"
	"womcpcm/internal/probe"
	"womcpcm/internal/telemetry"
	"womcpcm/internal/trace"
)

// benchRecords builds a deterministic mixed read/write stream with enough
// row reuse to exercise every write class and the refresh engine.
func benchRecords(g pcm.Geometry, n int) []trace.Record {
	m, err := pcm.NewAddrMapper(g)
	if err != nil {
		panic(err)
	}
	recs := make([]trace.Record, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range recs {
		state = state*6364136223846793005 + 1442695040888963407
		rank := int(state>>33) % g.Ranks
		bank := int(state>>41) % g.BanksPerRank
		row := int(state>>49) % 16 // tight footprint: rows hit the rewrite limit
		op := trace.Write
		if state&3 == 0 {
			op = trace.Read
		}
		recs[i] = trace.Record{
			Op:   op,
			Addr: m.Unmap(pcm.Location{Rank: rank, Bank: bank, Row: row}),
			Time: int64(i) * 40,
		}
	}
	return recs
}

// benchmarkRun measures Controller.Run over the PCM-refresh architecture —
// the configuration hitting the most instrumentation sites (write classes,
// refresh lifecycle, bank busy) — with the given probe attached.
func benchmarkRun(b *testing.B, p *probe.Probe) {
	g := pcm.Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 64, ColsPerRow: 16, BitsPerCol: 8, Devices: 8}
	cfg := Config{
		Geometry: g,
		Timing:   pcm.DefaultTiming(),
		WOM:      DefaultWOM(),
		Refresh:  DefaultRefresh(),
		Probe:    p,
	}
	recs := benchRecords(g, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(trace.NewSliceSource(recs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNilProbe is the zero-overhead contract's baseline: disabled
// instrumentation must cost nothing beyond a nil check per site. Compare
// against BenchmarkRunCounterProbe (make bench-probe).
func BenchmarkRunNilProbe(b *testing.B) { benchmarkRun(b, nil) }

// BenchmarkRunCounterProbe measures the cheap always-on aggregation sink.
func BenchmarkRunCounterProbe(b *testing.B) {
	benchmarkRun(b, probe.New(probe.NewCounterSink()))
}

// BenchmarkRunTelemetryProbe measures the windowed telemetry collector,
// demand latencies included (probe.RequestDone). Compare against
// BenchmarkRunNilProbe for the enabled-path cost.
func BenchmarkRunTelemetryProbe(b *testing.B) {
	g := pcm.Geometry{Ranks: 2, BanksPerRank: 4, RowsPerBank: 64, ColsPerRow: 16, BitsPerCol: 8, Devices: 8}
	recs := benchRecords(g, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := telemetry.New(telemetry.Options{Banks: g.Ranks * g.BanksPerRank})
		cfg := Config{
			Geometry: g,
			Timing:   pcm.DefaultTiming(),
			WOM:      DefaultWOM(),
			Refresh:  DefaultRefresh(),
			Probe:    probe.New(col),
		}
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		run, err := c.Run(trace.NewSliceSource(recs))
		if err != nil {
			b.Fatal(err)
		}
		col.Finish(cfg.ArchName(), run.SimulatedNs)
	}
}
