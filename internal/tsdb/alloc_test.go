package tsdb

import (
	"testing"

	"womcpcm/internal/metrics"
)

func BenchmarkObserveJob(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.ObserveJob("conf_date", 0.123)
	}
}

func BenchmarkChunkAppend(b *testing.B) {
	b.ReportAllocs()
	var c chunk
	for i := 0; i < b.N; i++ {
		c.append(int64(i)*5000, float64(i%97))
		if c.n >= 512 {
			c = chunk{}
		}
	}
}

func BenchmarkScrapeOnce(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// A realistic exposition: ~200 series.
	fam := metrics.Family{Name: "womd_bench_metric", Type: "gauge"}
	for i := 0; i < 200; i++ {
		fam.Samples = append(fam.Samples, metrics.Sample{
			Labels: metrics.Labels("idx", string(rune('a'+i%26)), "grp", string(rune('a'+i/26))), Value: 1.5})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.ScrapeOnce(func() []metrics.Family { return []metrics.Family{fam} })
	}
}
