package trace

import (
	"bufio"
	"fmt"
	"io"
)

// NewAutoReader returns a Source over r, sniffing the binary magic and
// falling back to the text format. It never fails on construction; format
// errors surface through the Source's Err after exhaustion.
func NewAutoReader(r io.Reader) Source {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binMagic))
	if err == nil && [4]byte(head) == binMagic {
		return NewBinReader(br)
	}
	// Short or unreadable streams fall through to the text reader, which
	// reports the underlying error (or yields an empty trace for EOF).
	return NewTextReader(br)
}

// ErrTooLong reports a stream that exceeds a CollectSized bound.
var ErrTooLong = fmt.Errorf("trace: stream exceeds record limit")

// presizeRecords bounds CollectSized's up-front reservation: 64k records,
// 1.5 MB. A size is a claim (an upload's Content-Length) that arrives
// before any record does, so it may steer how the slice grows but not how
// much is held before the bytes that justify it.
const presizeRecords = 64 << 10

// CollectSized drains r, binary or text (NewAutoReader), into a slice,
// failing with ErrTooLong once more than max records arrive (max <= 0 means
// unlimited). Services use the bound on untrusted uploads without
// buffering unbounded input. size is r's length in bytes, or -1 when
// unknown. A binary stream of known size claims (size-8)/17 records,
// capped at max when max > 0: the slice starts at the claim or
// presizeRecords, whichever is smaller, and grows by doubling but never
// past the claim, so a stream that holds what it claims ends with
// cap == len. Text streams, streams of unknown size and records past the
// claim grow as append grows them, and a stream shorter than size yields
// exactly its records.
func CollectSized(r io.Reader, size int64, max int) ([]Record, error) {
	src := NewAutoReader(r)
	var out []Record
	claimed := 0
	if _, bin := src.(*BinReader); bin && size > binHeaderSize {
		n := (size - binHeaderSize) / binRecordSize
		if max > 0 && n > int64(max) {
			n = int64(max)
		}
		claimed = int(n)
		out = make([]Record, 0, min(claimed, presizeRecords))
	}
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if max > 0 && len(out) >= max {
			return nil, fmt.Errorf("%w (max %d)", ErrTooLong, max)
		}
		if len(out) == cap(out) && len(out) < claimed {
			grown := make([]Record, len(out), min(2*len(out), claimed))
			copy(grown, out)
			out = grown
		}
		out = append(out, rec)
	}
	return out, src.Err()
}
