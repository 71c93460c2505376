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

// CollectSized drains r, binary or text (NewAutoReader), into a slice,
// failing with ErrTooLong once more than max records arrive (max <= 0 means
// unlimited). Services use the bound on untrusted uploads without
// buffering unbounded input. size is r's length in bytes, or -1 when
// unknown: a binary stream of known size decodes into one slice allocated
// up front for its (size-8)/17 records, capped at max when max > 0. Text
// streams and streams of unknown size grow as they arrive, and a stream
// shorter than size yields exactly its records.
func CollectSized(r io.Reader, size int64, max int) ([]Record, error) {
	src := NewAutoReader(r)
	var out []Record
	if _, bin := src.(*BinReader); bin && size > binHeaderSize {
		n := (size - binHeaderSize) / binRecordSize
		if max > 0 && n > int64(max) {
			n = int64(max)
		}
		out = make([]Record, 0, n)
	}
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if max > 0 && len(out) >= max {
			return nil, fmt.Errorf("%w (max %d)", ErrTooLong, max)
		}
		out = append(out, rec)
	}
	return out, src.Err()
}
