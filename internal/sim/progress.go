package sim

import (
	"sync/atomic"

	"womcpcm/internal/trace"
)

// ProgressFunc receives running (done, total) record counts from an
// experiment that reports progress (Observer.Progress). Callbacks may
// arrive concurrently from the parallel per-architecture simulations, and
// done is a shared cumulative count — consumers wanting a monotone reading
// should keep a max (see internal/engine's job progress).
type ProgressFunc func(done, total int64)

// progressStride bounds callback frequency: one report per this many records
// per source (plus one as the source drains), so the per-record cost is a
// local counter increment.
const progressStride = 4096

// progressSource decorates a trace.Source with record counting against a
// completion total shared across the sources of one experiment.
type progressSource struct {
	src    trace.Source
	done   *atomic.Int64
	total  int64
	report ProgressFunc
	local  int64
}

// newProgressSource wraps src; a nil report returns src unchanged.
func newProgressSource(src trace.Source, done *atomic.Int64, total int64, report ProgressFunc) trace.Source {
	if report == nil {
		return src
	}
	return &progressSource{src: src, done: done, total: total, report: report}
}

// Next implements trace.Source.
func (p *progressSource) Next() (trace.Record, bool) {
	r, ok := p.src.Next()
	if !ok {
		p.flush()
		return r, false
	}
	p.local++
	if p.local >= progressStride {
		p.flush()
	}
	return r, true
}

func (p *progressSource) flush() {
	if p.local == 0 {
		return
	}
	p.report(p.done.Add(p.local), p.total)
	p.local = 0
}

// Err implements trace.Source.
func (p *progressSource) Err() error { return p.src.Err() }
