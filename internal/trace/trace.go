// Package trace defines the memory access trace format used to drive the
// simulator — the stand-in for the paper's Pin-captured traces (§5). A
// trace is a time-ordered stream of records, each a read or write of one
// memory line at a physical byte address with an arrival time in
// nanoseconds.
//
// Two encodings are provided: a human-editable text form ("R 0x1f40 2700"
// per line, with '#' comments) and a compact binary form with a magic
// header for bulk traces emitted by cmd/tracegen.
package trace

import (
	"fmt"
)

// Op is the access type.
type Op uint8

const (
	// Read is a memory load (LLC miss fill).
	Read Op = iota
	// Write is a memory store (LLC writeback).
	Write
)

// String renders the op as the single letter used by the text format.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ParseOp parses a text-format op letter.
func ParseOp(s string) (Op, error) {
	switch s {
	case "R", "r":
		return Read, nil
	case "W", "w":
		return Write, nil
	default:
		return 0, fmt.Errorf("trace: unknown op %q", s)
	}
}

// Record is one memory access.
type Record struct {
	// Op is the access type.
	Op Op
	// Addr is the physical byte address of the accessed line.
	Addr uint64
	// Time is the arrival time at the memory controller, in nanoseconds
	// from the start of the trace. Times must be non-decreasing.
	Time int64
}

// String renders the record in text-trace form.
func (r Record) String() string {
	return fmt.Sprintf("%s 0x%x %d", r.Op, r.Addr, r.Time)
}

// Source yields a time-ordered stream of records. Next returns the zero
// Record and false after the final record; implementations surface decoding
// errors via Err after exhaustion.
type Source interface {
	Next() (Record, bool)
	Err() error
}

// SliceSource adapts an in-memory record slice to Source.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource wraps recs; the slice is not copied.
func NewSliceSource(recs []Record) *SliceSource {
	return &SliceSource{recs: recs}
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Err implements Source; a slice source never fails.
func (*SliceSource) Err() error { return nil }

// Len returns the number of records not yet yielded.
func (s *SliceSource) Len() int { return len(s.recs) - s.pos }

// Collect drains a source into a slice, failing on a source error. A source
// with a Len method, such as a SliceSource, is collected into one slice of
// that length.
func Collect(src Source) ([]Record, error) {
	var out []Record
	if l, ok := src.(interface{ Len() int }); ok {
		out = make([]Record, 0, l.Len())
	}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, src.Err()
}

// Validate checks that records are time-ordered.
func Validate(recs []Record) error {
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			return fmt.Errorf("trace: record %d arrives at %d ns, before record %d at %d ns",
				i, recs[i].Time, i-1, recs[i-1].Time)
		}
	}
	return nil
}

// Limit wraps a source, yielding at most n records.
type Limit struct {
	src Source
	n   int
}

// NewLimit returns a source that stops after n records of src.
func NewLimit(src Source, n int) *Limit {
	return &Limit{src: src, n: n}
}

// Next implements Source.
func (l *Limit) Next() (Record, bool) {
	if l.n <= 0 {
		return Record{}, false
	}
	l.n--
	return l.src.Next()
}

// Err implements Source.
func (l *Limit) Err() error { return l.src.Err() }
