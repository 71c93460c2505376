package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseExposition(t *testing.T) {
	text := `# HELP womd_jobs_total jobs
# TYPE womd_jobs_total counter
womd_jobs_total{state="completed"} 12
womd_jobs_total{state="failed"} 1
womd_up 1
womd_weird{msg="a\"b\\c",other="x,y"} 3.5
this line is garbage
womd_ts_suffix 4 1700000000000
`
	fams, malformed := Parse(text)
	if malformed != 1 {
		t.Fatalf("malformed=%d, want 1", malformed)
	}
	var samples []Sample
	for _, f := range fams {
		samples = append(samples, f.Samples...)
	}
	if len(samples) != 5 {
		t.Fatalf("samples=%d, want 5: %+v", len(samples), samples)
	}
	if labels := samples[2].Labels; len(labels) != 0 {
		t.Fatalf("bare metric labels: %v", labels)
	}
	labels := samples[3].Labels
	if len(labels) != 2 || labels[0] != (Label{"msg", `a"b\c`}) || labels[1] != (Label{"other", "x,y"}) {
		t.Fatalf("escaped labels: %+v", labels)
	}
	if samples[4].Value != 4 {
		t.Fatalf("timestamped sample value: %v", samples[4].Value)
	}
	if fams[0].Name != "womd_jobs_total" || fams[0].Help != "jobs" || fams[0].Type != "counter" ||
		len(fams[0].Samples) != 2 {
		t.Fatalf("family attribution: %+v", fams[0])
	}
}

// TestParseSuffixAttribution: histogram series attach to the family whose
// header precedes them, with the name extension kept as Suffix.
func TestParseSuffixAttribution(t *testing.T) {
	fams, malformed := Parse(`# HELP h lat
# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 3
h_sum 4.5
h_count 3
`)
	if malformed != 0 || len(fams) != 1 {
		t.Fatalf("families %+v, malformed %d", fams, malformed)
	}
	var suffixes []string
	for _, s := range fams[0].Samples {
		suffixes = append(suffixes, s.Suffix)
	}
	if got := strings.Join(suffixes, ","); got != "_bucket,_bucket,_sum,_count" {
		t.Fatalf("suffixes = %s", got)
	}
}

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
	fams, malformed := Parse(b.String())
	if malformed != 0 || len(fams) != 4 || fams[1].Help != "Tabs\\ and\nnewlines." ||
		fams[1].Samples[0].Labels[0].Value != "a\"b\\c\td\ne" {
		t.Fatalf("re-parse: malformed %d, %+v", malformed, fams)
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

// FuzzParse holds the parser federation runs on remote input to two
// rules: it never panics, and what it reads survives a Write/Parse round
// trip unchanged.
func FuzzParse(f *testing.F) {
	f.Add(`# HELP womd_jobs_total jobs
# TYPE womd_jobs_total counter
womd_jobs_total{state="completed"} 12
womd_jobs_total{state="failed"} 1
womd_up 1
womd_weird{msg="a\"b\\c",other="x,y"} 3.5
this line is garbage
womd_ts_suffix 4 1700000000000
`)
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 4.5\nh_count 3\n")
	f.Add("a{x=\"\\q\\n\"} NaN\n# HELP b \\x\\\\\nb -Inf\nab 1e400\n")
	f.Fuzz(func(t *testing.T, text string) {
		fams, _ := Parse(text)
		var b strings.Builder
		if err := Write(&b, fams); err != nil {
			t.Fatal(err)
		}
		again, malformed := Parse(b.String())
		if malformed != 0 {
			t.Fatalf("Write output has %d malformed lines:\n%s", malformed, b.String())
		}
		if !equalFamilies(fams, again) {
			t.Fatalf("round trip changed families:\n%+v\n%+v\ntext:\n%s", fams, again, b.String())
		}
	})
}

func equalFamilies(a, b []Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j := range fa.Samples {
			sa, sb := fa.Samples[j], fb.Samples[j]
			if sa.Suffix != sb.Suffix || len(sa.Labels) != len(sb.Labels) ||
				!(sa.Value == sb.Value || math.IsNaN(sa.Value) && math.IsNaN(sb.Value)) {
				return false
			}
			for k := range sa.Labels {
				if sa.Labels[k] != sb.Labels[k] {
					return false
				}
			}
		}
	}
	return true
}
