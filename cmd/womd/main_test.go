package main

import (
	"flag"
	"os"
	"regexp"
	"testing"
)

// TestFlagsDocumented fails when a womd flag is missing from README.md, so
// a flag added without documentation does not ship.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var o options
	newFlagSet(&o).VisitAll(func(f *flag.Flag) {
		// -name must stand alone: -cache does not count as documented by
		// a mention of -cache-sync.
		re := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `([^\w-]|$)`)
		if !re.Match(readme) {
			t.Errorf("womd flag -%s is not documented in README.md", f.Name)
		}
	})
}
