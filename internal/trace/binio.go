package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: an 8-byte header ("WOMT" magic, version 1, 3 bytes
// reserved) followed by fixed 17-byte little-endian records:
//
//	byte 0      op (0 read, 1 write)
//	bytes 1-8   address
//	bytes 9-16  time (ns)
var binMagic = [4]byte{'W', 'O', 'M', 'T'}

// binVersion is the current binary trace version.
const binVersion = 1

const (
	binHeaderSize = 8
	binRecordSize = 17
)

// ErrBadMagic indicates the stream is not a binary trace.
var ErrBadMagic = errors.New("trace: bad binary trace magic")

// BinWriter emits the binary trace format.
type BinWriter struct {
	w      *bufio.Writer
	n      int
	err    error
	header bool
}

// NewBinWriter wraps w; the header is emitted lazily on first write.
func NewBinWriter(w io.Writer) *BinWriter {
	return &BinWriter{w: bufio.NewWriter(w)}
}

func (b *BinWriter) writeHeader() {
	var h [binHeaderSize]byte
	copy(h[:4], binMagic[:])
	h[4] = binVersion
	_, b.err = b.w.Write(h[:])
	b.header = true
}

// Write appends one record.
func (b *BinWriter) Write(r Record) {
	if b.err != nil {
		return
	}
	if !b.header {
		b.writeHeader()
		if b.err != nil {
			return
		}
	}
	var buf [binRecordSize]byte
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(buf[1:9], r.Addr)
	binary.LittleEndian.PutUint64(buf[9:17], uint64(r.Time))
	_, b.err = b.w.Write(buf[:])
	if b.err == nil {
		b.n++
	}
}

// Count returns the number of records written.
func (b *BinWriter) Count() int { return b.n }

// Flush flushes buffered output (emitting the header even for an empty
// trace) and returns the first error encountered.
func (b *BinWriter) Flush() error {
	if b.err != nil {
		return b.err
	}
	if !b.header {
		b.writeHeader()
		if b.err != nil {
			return b.err
		}
	}
	return b.w.Flush()
}

// BinReader parses the binary trace format as a Source.
type BinReader struct {
	r      *bufio.Reader
	err    error
	header bool
	// buf receives one record. A local array would escape through the
	// io.Reader that ReadFull takes and cost an allocation per record.
	buf [binRecordSize]byte
}

// NewBinReader wraps r.
func NewBinReader(r io.Reader) *BinReader {
	return &BinReader{r: bufio.NewReader(r)}
}

func (b *BinReader) readHeader() {
	var h [binHeaderSize]byte
	if _, err := io.ReadFull(b.r, h[:]); err != nil {
		b.err = fmt.Errorf("trace: reading header: %w", err)
		return
	}
	if [4]byte(h[:4]) != binMagic {
		b.err = ErrBadMagic
		return
	}
	if h[4] != binVersion {
		b.err = fmt.Errorf("trace: unsupported binary trace version %d", h[4])
		return
	}
	b.header = true
}

// Next implements Source.
func (b *BinReader) Next() (Record, bool) {
	if b.err != nil {
		return Record{}, false
	}
	if !b.header {
		b.readHeader()
		if b.err != nil {
			return Record{}, false
		}
	}
	buf := b.buf[:]
	if _, err := io.ReadFull(b.r, buf); err != nil {
		if !errors.Is(err, io.EOF) {
			b.err = fmt.Errorf("trace: reading record: %w", err)
		}
		return Record{}, false
	}
	if buf[0] > byte(Write) {
		b.err = fmt.Errorf("trace: invalid op byte %d", buf[0])
		return Record{}, false
	}
	t := int64(binary.LittleEndian.Uint64(buf[9:17]))
	if t < 0 {
		b.err = fmt.Errorf("trace: negative record time %d", t)
		return Record{}, false
	}
	return Record{
		Op:   Op(buf[0]),
		Addr: binary.LittleEndian.Uint64(buf[1:9]),
		Time: t,
	}, true
}

// Err implements Source.
func (b *BinReader) Err() error { return b.err }
