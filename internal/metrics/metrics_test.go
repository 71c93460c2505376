package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWrite(t *testing.T) {
	var b strings.Builder
	err := Write(&b, []Family{
		Counter("c_total", "A counter.", 3),
		{Name: "empty", Help: "Never shown.", Type: "gauge"},
		{Name: "g", Help: "Tabs\\ and\nnewlines.", Type: "gauge", Samples: []Sample{
			{Labels: Labels("tenant", "a\"b\\c\td\ne", "zone", "z"), Value: 0.25},
			{Labels: Labels("tenant", "x"), Value: 1 << 53},
			{Value: -7},
		}},
		{Name: "h", Help: "H.", Type: "histogram",
			Samples: Histogram(Labels("experiment", "fig5"), []Bucket{{Le: 0.0625, Count: 1}, {Le: 1e-9, Count: 2}}, 3, 1.5e9)},
		{Name: "s", Help: "S.", Type: "summary",
			Samples: Summary([]Quantile{{0.5, 1}, {0.99, math.Inf(1)}}, 12345678)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP g Tabs\\ and\nnewlines.
# TYPE g gauge
g{tenant="a\"b\\c` + "\t" + `d\ne",zone="z"} 0.25
g{tenant="x"} 9.007199254740992e+15
g -7
# HELP h H.
# TYPE h histogram
h_bucket{experiment="fig5",le="0.0625"} 1
h_bucket{experiment="fig5",le="1e-09"} 2
h_bucket{experiment="fig5",le="+Inf"} 3
h_sum{experiment="fig5"} 1500000000
h_count{experiment="fig5"} 3
# HELP s S.
# TYPE s summary
s{quantile="0.5"} 1
s{quantile="0.99"} +Inf
s_count 12345678
`
	if got := b.String(); got != want {
		t.Fatalf("Write:\n%s\nwant:\n%s", got, want)
	}
}

// TestFormatFloatMatchesPercentG pins label-borne numbers (histogram le,
// summary quantile) to fmt's %g text: history series keys include them.
func TestFormatFloatMatchesPercentG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, 1, 0.5, 0.9, 0.99, 1e-9, 1.6777216e-02, 1 << 40, 1e21, 123456789}
	for i := 0; i < 2000; i++ {
		vals = append(vals, float64(int64(1)<<rng.Intn(62))*1e-9, rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(30)-15)))
	}
	for _, v := range vals {
		if got, want := formatFloat(v), fmt.Sprintf("%g", v); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
