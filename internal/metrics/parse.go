package metrics

import (
	"regexp"
	"strconv"
	"strings"
)

var (
	nameRe = regexp.MustCompile(`^[a-zA-Z_:][\w:]*$`)
	// sampleRe splits a sample line into name, optional label body and
	// value; a trailing timestamp is left unmatched and so ignored.
	sampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][\w:]*)(?:\{((?:\s*[a-zA-Z_]\w*\s*=\s*"(?:\\.|[^"\\])*"\s*,?)*)\s*\}\s*|\s+)(\S+)`)
	labelRe = regexp.MustCompile(`([a-zA-Z_]\w*)\s*=\s*"((?:\\.|[^"\\])*)"`)

	// Any other backslash sequence is kept as written.
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	helpUnescaper  = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
)

// Parse reads a Prometheus text exposition leniently, for input this
// process did not write (a federated worker's /metrics). A HELP or TYPE
// line opens a family unless it adds to the open family's still-empty
// header. A sample joins the open family when its name extends the
// family name (the extension becomes Suffix); any other sample opens an
// untyped family of its own name. Label values are unescaped; an optional
// trailing timestamp is ignored. Lines that cannot be read are counted in
// malformed and skipped, and families left without samples are dropped.
func Parse(text string) (fams []Family, malformed int) {
	cur := -1 // index of the open family
	open := func(name string) {
		fams = append(fams, Family{Name: name})
		cur = len(fams) - 1
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			name, rest, _ := strings.Cut(line[len("# HELP "):], " ")
			if !nameRe.MatchString(name) {
				malformed++
				continue
			}
			if cur < 0 || fams[cur].Name != name || len(fams[cur].Samples) > 0 {
				open(name)
			}
			if line[2] == 'H' {
				fams[cur].Help = helpUnescaper.Replace(rest)
			} else {
				fams[cur].Type = rest
			}
		case line[0] == '#':
		default:
			// Parsed strings outlive the text (history keeps label values per
			// series): clone so each pins one line, not the whole body.
			m := sampleRe.FindStringSubmatch(strings.Clone(line))
			if m == nil {
				malformed++
				continue
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				malformed++
				continue
			}
			if cur < 0 || !strings.HasPrefix(m[1], fams[cur].Name) {
				open(m[1])
			}
			s := Sample{Suffix: m[1][len(fams[cur].Name):], Value: v}
			for _, l := range labelRe.FindAllStringSubmatch(m[2], -1) {
				s.Labels = append(s.Labels, Label{l[1], labelUnescaper.Replace(l[2])})
			}
			fams[cur].Samples = append(fams[cur].Samples, s)
		}
	}
	out := fams[:0]
	for _, f := range fams {
		if len(f.Samples) > 0 {
			out = append(out, f)
		}
	}
	return out, malformed
}
