// Package metrics owns womd's Prometheus text exposition format and
// nothing else: the structured Family/Sample form every plane's collector
// returns, the one writer that renders it for GET /metrics, histogram and
// summary expansion, and the one lenient parser (federation reads worker
// expositions with it). There is no live-instrument registry: collectors
// build families at scrape time from the atomics and views they already
// keep, so no counter is held twice.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one label pair. Samples hold labels as an ordered slice so a
// rendered line keeps the label order its collector chose.
type Label struct {
	Name, Value string
}

// Sample is one series of a family. Suffix extends the family name
// (histogram _bucket/_sum/_count, summary _count); it is "" for the
// family's own series.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: its HELP and TYPE metadata and samples.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Counter returns a family holding one unlabeled counter sample.
func Counter(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: "counter", Samples: []Sample{{Value: v}}}
}

// Gauge returns a family holding one unlabeled gauge sample.
func Gauge(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: "gauge", Samples: []Sample{{Value: v}}}
}

// Bucket is one cumulative histogram bucket: Count observations at or
// below Le.
type Bucket struct {
	Le    float64
	Count uint64
}

// Histogram expands one histogram series into a _bucket sample per
// bucket, the le="+Inf" bucket holding count, then _sum and _count. Every
// sample carries labels; buckets append le last.
func Histogram(labels []Label, buckets []Bucket, count uint64, sum float64) []Sample {
	out := make([]Sample, 0, len(buckets)+3)
	bucket := func(le string, n uint64) {
		ls := append(append(make([]Label, 0, len(labels)+1), labels...), Label{"le", le})
		out = append(out, Sample{Suffix: "_bucket", Labels: ls, Value: float64(n)})
	}
	for _, b := range buckets {
		bucket(formatFloat(b.Le), b.Count)
	}
	bucket("+Inf", count)
	return append(out,
		Sample{Suffix: "_sum", Labels: labels, Value: sum},
		Sample{Suffix: "_count", Labels: labels, Value: float64(count)})
}

// Quantile is one summary quantile: the value V at quantile Q.
type Quantile struct {
	Q, V float64
}

// Summary expands one unlabeled summary series: a quantile-labeled sample
// per entry of qs, then _count.
func Summary(qs []Quantile, count uint64) []Sample {
	out := make([]Sample, 0, len(qs)+1)
	for _, q := range qs {
		out = append(out, Sample{Labels: []Label{{"quantile", formatFloat(q.Q)}}, Value: q.V})
	}
	return append(out, Sample{Suffix: "_count", Value: float64(count)})
}

// Write renders fams in order. A family without samples is skipped
// entirely: a TYPE line with no samples trips exposition checkers. A
// family with neither HELP nor TYPE still gets an empty HELP line, so its
// samples re-parse as their own family.
func Write(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" || f.Type == "" {
			b = fmt.Appendf(b, "# HELP %s %s\n", f.Name, helpEscaper.Replace(f.Help))
		}
		if f.Type != "" {
			b = fmt.Appendf(b, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			b = append(append(b, f.Name...), s.Suffix...)
			sep := byte('{')
			for _, l := range s.Labels {
				b = fmt.Appendf(b, `%c%s="%s"`, sep, l.Name, EscapeLabelValue(l.Value))
				sep = ','
			}
			if sep == ',' {
				b = append(b, '}')
			}
			b = append(appendValue(append(b, ' '), s.Value), '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// EscapeLabelValue applies the exposition format's label-value escapes:
// backslash, double quote and newline, and nothing else.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// appendValue is the one sample-value formatter: integral values that a
// float64 holds exactly print as integers, everything else as %g.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// formatFloat renders a label-borne number (le, quantile) as %g.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SortByLabels orders samples by their label values, first label first.
func SortByLabels(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		a, b := samples[i].Labels, samples[j].Labels
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k].Value != b[k].Value {
				return a[k].Value < b[k].Value
			}
		}
		return len(a) < len(b)
	})
}

// Labels builds a label slice from name, value pairs, in order.
func Labels(kv ...string) []Label {
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Label{kv[i], kv[i+1]})
	}
	return out
}
