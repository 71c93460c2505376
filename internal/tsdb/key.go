package tsdb

import (
	"sort"
	"strings"

	"womcpcm/internal/metrics"
)

// canonicalKey is a series' stable identity: metric plus labels sorted by
// name, formatted back into exposition syntax. Replay, ingest, and query
// all meet at this string.
func canonicalKey(metric string, labels map[string]string) string {
	if len(labels) == 0 {
		return metric
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(metric)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(metrics.EscapeLabelValue(labels[k]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// matchLabels reports whether a series' labels satisfy every matcher.
func matchLabels(labels, match map[string]string) bool {
	for k, want := range match {
		if labels[k] != want {
			return false
		}
	}
	return true
}
