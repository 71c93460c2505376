package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"womcpcm/internal/core"
	"womcpcm/internal/pcm"
	"womcpcm/internal/sim"
	"womcpcm/internal/trace"
	"womcpcm/internal/workload"
)

const (
	// replayProfile and replayRecords shape the uploaded trace. The profile
	// is fixed so that the seed changes the access stream, not its cost.
	replayProfile = "FFT"
	replayRecords = 100_000
	// replayLabel is the upload label; womd names the replay's runs by it.
	replayLabel = "perfbench"
)

// traceInput is a generated trace, its binary encoding, and the canonical
// JSON of the runs an in-process sim.Replay produces from it.
type traceInput struct {
	recs []trace.Record
	bin  []byte
	runs []byte
}

// makeTrace generates n records of the replay profile, encodes them the
// way tracegen does, and replays them in-process for the expected runs,
// recording spans under sc.
func makeTrace(ctx context.Context, sc scope, seed int64, n int) (*traceInput, error) {
	p, err := workload.ProfileByName(replayProfile)
	if err != nil {
		return nil, err
	}
	sp := sc.start("workload")
	recs, err := workload.Generate(p, pcm.DefaultGeometry(), seed, n)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = sc.start("trace.encode")
	var buf bytes.Buffer
	w := trace.NewBinWriter(&buf)
	for _, r := range recs {
		w.Write(r)
	}
	err = w.Flush()
	sp.End()
	if err != nil {
		return nil, err
	}
	cfg, err := sim.Params{Requests: n}.Config(ctx)
	if err != nil {
		return nil, err
	}
	sp = sc.start("sim.reference")
	res, err := sim.Replay(cfg, replayLabel, recs)
	sp.End()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res.Runs)
	if err != nil {
		return nil, err
	}
	runs, err := canonical(b)
	if err != nil {
		return nil, err
	}
	return &traceInput{recs: recs, bin: buf.Bytes(), runs: runs}, nil
}

// replay uploads a trace to a default womd and replays it on all four
// architectures, one client.
type replay struct {
	e       *env
	n       int
	in      *traceInput
	d       *womd
	uploads []float64 // POST /v1/traces round trips, ms
}

func (r *replay) opName() string { return "womd.op" }

func newReplay(e *env) mix { return &replay{e: e, n: replayRecords} }

func (r *replay) close() {
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

func (r *replay) setup(ctx context.Context) (float64, error) {
	in, err := makeTrace(ctx, r.e.sc, r.e.seed, r.n)
	if err != nil {
		return 0, err
	}
	r.in = in
	return startRepeated(ctx, r.e, &r.d)
}

func (r *replay) run(ctx context.Context, seconds float64, sc scope) (pass, error) {
	win, err := watch(r.d.proc.pid())
	if err != nil {
		return pass{}, err
	}
	var p pass
	var all []float64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		traced := sc.traced() && i%2 == 1
		sp, opScope := sc.op(r.opName(), traced)
		ms, err := r.once(ctx, opScope)
		sp.End()
		if ctx.Err() != nil {
			break
		}
		p.attempted++
		if err != nil {
			p.failed++
			if p.failed <= 5 {
				r.e.logf("  check: %v", err)
			}
			continue
		}
		all = append(all, ms)
		p.lat[b2i(traced)] = append(p.lat[b2i(traced)], ms)
	}
	window := since(t0)
	cpuMs, rss, err := win.end(r.e)
	if err != nil {
		return pass{}, err
	}
	if err := ctx.Err(); err != nil {
		return pass{}, err
	}
	done := float64(len(all))
	recs := done * float64(r.n*len(core.Arches()))
	r.e.logf("replay: %s trace of %d records, upload + replay job with params.requests=%d, 1 client",
		replayProfile, r.n, r.n)
	r.e.line("replay_p50_s", median(all)/1e3, "s", fmt.Sprintf("n=%d", len(all)))
	r.e.line("replay_rec_per_s", recs/window, "1/s", "records x 4 architectures per second")
	r.e.timing("op", all)
	p.metrics = map[string]metric{
		"op_p50_ms":      {median(all), "ms"},
		"jobs_per_s":     {done / window, "1/s"},
		"cpu_ms_per_job": {cpuMs / max(done, 1), "ms"},
		"rss_mb":         {rss, "MB"},
	}
	return p, nil
}

// once uploads the trace, replays it, checks the result and deletes the
// job and the trace. It returns upload start to result received in ms.
func (r *replay) once(ctx context.Context, sc scope) (float64, error) {
	t := time.Now()
	sp := sc.start("womd.upload")
	tid, err := r.d.upload(ctx, replayLabel, r.in.bin)
	sp.End()
	if err != nil {
		return 0, err
	}
	up := time.Since(t)
	r.uploads = append(r.uploads, float64(up)/1e6)
	body, err := json.Marshal(map[string]any{
		"experiment": "replay", "trace_id": tid,
		"params": map[string]any{"requests": r.n},
	})
	if err != nil {
		return 0, err
	}
	op, err := r.d.runJob(ctx, sc, body)
	// Delete the trace even when the job failed: womd stores at most 64.
	if rmErr := r.d.remove(ctx, "/v1/traces/"+tid); err == nil {
		err = rmErr
	}
	if err != nil {
		return 0, err
	}
	var res struct {
		Data struct {
			Records int             `json:"Records"`
			Runs    json.RawMessage `json:"Runs"`
		} `json:"data"`
	}
	if err := json.Unmarshal(op.result, &res); err != nil {
		return 0, err
	}
	if res.Data.Records != r.n {
		return 0, fmt.Errorf("replay reports %d records, uploaded %d", res.Data.Records, r.n)
	}
	runs, err := canonical(res.Data.Runs)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(runs, r.in.runs) {
		return 0, fmt.Errorf("replay runs differ from an in-process sim.Replay of the same records")
	}
	return float64(up+op.latency) / 1e6, nil
}
