// Package probe is the low-overhead typed event bus of the discrete-event
// memory simulator (internal/memctrl). The controller emits one Event per
// interesting occurrence — a classified row write, a refresh lifecycle
// transition, a WOM-cache action, a bank busy interval, a completed demand
// request — each stamped with the simulated clock and its bank/rank
// coordinates, and a Probe fans the stream out to composable sinks: cheap
// always-on counters (CounterSink), the windowed telemetry collector
// (internal/telemetry), and a Chrome trace-event exporter (TimelineSink +
// WriteChromeTrace) whose output opens directly in Perfetto or
// chrome://tracing.
//
// The zero-cost contract: a Controller with no probe configured pays exactly
// one nil pointer check per emission site (see DESIGN.md §9 and the
// BenchmarkRun*Probe benchmarks in internal/memctrl). A Probe and its sinks
// are owned by a single simulation goroutine and are not safe for concurrent
// use; give every Controller its own.
package probe

import "fmt"

// Clock is a simulated timestamp or duration in nanoseconds, mirroring
// memctrl.Clock without importing it.
type Clock = int64

// Kind classifies an Event. The taxonomy covers the four write classes the
// paper's mechanisms distinguish, the PCM-refresh lifecycle (§3.2), the
// WCPCM write-cache actions (§4), bank occupancy, and demand request
// completion (Fig. 5's per-request latency).
type Kind uint8

const (
	// WriteFlipNWrite is a conventional full row write: every write of the
	// baseline architecture and WCPCM victim write-backs. (Named for the
	// Flip-N-Write coding conventional PCM uses to bound flipped cells; it
	// cannot remove the SET from the critical path.)
	WriteFlipNWrite Kind = iota
	// WriteFirst is the first write into an erased WOM row (generation 0),
	// programmed with the fast first-write pattern.
	WriteFirst
	// WriteWOMRewrite is an in-budget RESET-only WOM rewrite
	// (0 < generation < k).
	WriteWOMRewrite
	// WriteAlpha is the slow α-write issued once the row exhausted its
	// rewrite budget — the §3.2 bottleneck PCM-refresh attacks.
	WriteAlpha

	// RefreshScheduled marks a refresh scheduling point electing a rank
	// (burst refresh) or a cache array.
	RefreshScheduled
	// RefreshStarted marks one bank (or cache array) beginning to refresh
	// a tracked at-limit row.
	RefreshStarted
	// RefreshPaused marks write pausing: a demand access preempted the
	// refresh; the event spans the truncated refresh interval.
	RefreshPaused
	// RefreshResumed marks a previously paused row re-entering refresh at
	// a later scheduling point.
	RefreshResumed
	// RefreshCompleted marks a committed refresh; the event spans the full
	// refresh interval.
	RefreshCompleted

	// CacheHit is a WOM-cache lookup serviced in place (read tag match, or
	// write to the row already caching this bank).
	CacheHit
	// CacheFill is a write allocating an empty (invalid) cache row.
	CacheFill
	// CacheEvict is a write displacing another bank's victim row.
	CacheEvict
	// CacheWriteback is the victim's write-back request entering the main
	// memory queue.
	CacheWriteback

	// BankBusy spans one service occupancy of a bank or cache array.
	BankBusy

	// RequestDone marks a demand request's completion: Time is its arrival
	// and Dur its latency, so Time+Dur is the completion time. Read gives
	// the direction. Controller-internal traffic (WOM-cache victim
	// write-backs) emits none.
	RequestDone

	numKinds
)

// NumKinds is the number of defined event kinds.
const NumKinds = int(numKinds)

// NumWriteKinds is the number of write-classification kinds; kinds
// 0..NumWriteKinds-1 are exactly the write classes.
const NumWriteKinds = int(WriteAlpha) + 1

var kindNames = [...]string{
	"write-flip-n-write", "write-first", "write-wom-rewrite", "write-alpha",
	"refresh-scheduled", "refresh-started", "refresh-paused",
	"refresh-resumed", "refresh-completed",
	"cache-hit", "cache-fill", "cache-evict", "cache-writeback",
	"bank-busy", "request-done",
}

// String names the kind as it appears in timelines and counter snapshots.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Category groups kinds for timeline filtering: "write", "refresh",
// "cache", "bank", or "request".
func (k Kind) Category() string {
	switch {
	case k <= WriteAlpha:
		return "write"
	case k <= RefreshCompleted:
		return "refresh"
	case k <= CacheWriteback:
		return "cache"
	case k == BankBusy:
		return "bank"
	default:
		return "request"
	}
}

// Event is one simulator occurrence.
type Event struct {
	// Time is the simulated start time (ns).
	Time Clock
	// Dur is the simulated duration for interval events (bank busy,
	// refresh spans); 0 marks an instant.
	Dur Clock
	// Kind classifies the event.
	Kind Kind
	// Read marks a RequestDone for a read; false for a write. It fills the
	// padding after Kind, so an Event stays 48 bytes.
	Read bool
	// Rank and Bank locate the event; Bank is -1 for rank-scoped events
	// (the per-rank WOM-cache array, rank-level refresh scheduling).
	Rank, Bank int
	// Row is the affected row address, -1 when not row-specific.
	Row int
}

// Sink consumes events. Implementations are single-goroutine, like the
// simulator that feeds them.
type Sink interface {
	Record(Event)
}

// Probe fans events out to its sinks. A nil *Probe is inert only through
// the caller's nil check — the controller guards every emission site with
// one, which is the entire disabled-path cost.
type Probe struct {
	sinks []Sink
}

// New builds a probe over the given sinks. Nil sinks are skipped.
func New(sinks ...Sink) *Probe {
	p := &Probe{}
	for _, s := range sinks {
		if s != nil {
			p.sinks = append(p.sinks, s)
		}
	}
	return p
}

// Emit records ev in every sink.
func (p *Probe) Emit(ev Event) {
	for _, s := range p.sinks {
		s.Record(ev)
	}
}
