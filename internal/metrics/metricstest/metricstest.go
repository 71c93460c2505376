// Package metricstest is the strict exposition checker tests hold
// GET /metrics to. It is written independently of metrics.Parse, so it
// stays an oracle for the writer rather than agreeing with it by
// construction.
package metricstest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Sample is one checked exposition line; label values are unescaped.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	labelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\[\\"n]|[^"\\\n])*)"`)
	unquote = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// Parse checks body strictly and returns each family's TYPE and every
// sample. Label quoting beyond the three defined escapes (\\, \", \n),
// duplicate or malformed TYPE lines, unknown comment forms and bad values
// all fail the test.
func Parse(t testing.TB, body string) (types map[string]string, samples []Sample) {
	t.Helper()
	types = make(map[string]string)
	for ln, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := types[fields[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[2])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		name := nameRe.FindString(line)
		if name == "" {
			t.Fatalf("line %d: no metric name: %q", ln+1, line)
		}
		rest := line[len(name):]
		labels := make(map[string]string)
		if strings.HasPrefix(rest, "{") {
			rest = rest[1:]
			for !strings.HasPrefix(rest, "}") {
				m := labelRe.FindStringSubmatch(rest)
				if m == nil {
					t.Fatalf("line %d: bad label quoting after %q{: %q", ln+1, name, rest)
				}
				labels[m[1]] = unquote.Replace(m[2])
				rest = rest[len(m[0]):]
				rest = strings.TrimPrefix(rest, ",")
			}
			rest = rest[1:]
		}
		valStr := strings.TrimSpace(rest)
		value, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q for %s: %v", ln+1, valStr, name, err)
		}
		samples = append(samples, Sample{Name: name, Labels: labels, Value: value})
	}
	return types, samples
}

// BaseName strips the histogram series suffixes.
func BaseName(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}
