package main

import (
	"context"
	"fmt"
	"os"

	"womcpcm/internal/sim"
	"womcpcm/internal/trace"
)

// replayTrace runs a trace file through all four architectures via the
// registry's replay experiment and prints each run's summary plus the
// normalized comparison.
func replayTrace(params sim.Params, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	recs, err := trace.CollectSized(f, size, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	params.Trace = recs
	params.TraceLabel = path
	exp, err := sim.LookupExperiment("replay")
	if err != nil {
		return err
	}
	res, err := exp.Run(context.Background(), params)
	if err != nil {
		return err
	}
	replay := res.Data.(*sim.ReplayResult)
	for _, run := range replay.Runs {
		fmt.Print(run.Summary())
		fmt.Println()
	}
	fmt.Print(res.Text)
	return nil
}
