// Package seglog is the append-only segment log under the two durable
// stores: the result cache (resultstore) and the metrics history (tsdb).
// A log is one directory of numbered segment files named
// <prefix><8-digit index>.log. Each segment is a header followed by frames
// of
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// Frames are only ever appended, to the newest segment (the append head),
// which rotates to a fresh segment once it reaches a size cap. Open
// replays every segment oldest-first. A crash can only tear the append
// head, so any damage in the final segment — a short header or frame, an
// implausible length, a CRC mismatch, or a payload the caller cannot
// decode — is a torn tail: the segment is truncated at the last good frame
// and every earlier frame is kept. The same damage in an interior segment
// is ErrCorrupt: the log refuses to guess rather than silently drop
// history.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// frameOverhead is the length + CRC prefix of every frame.
const frameOverhead = 8

// ErrCorrupt reports damage in a non-final segment, which a crash cannot
// produce.
var ErrCorrupt = errors.New("seglog: corrupt interior segment")

var errClosed = errors.New("seglog: log closed")

// Config is a log's on-disk identity and size limits.
type Config struct {
	// Header is the magic every segment starts with.
	Header string
	// Prefix starts every segment file name.
	Prefix string
	// MaxPayload caps one frame's payload on append and on replay, so a
	// corrupt length field cannot trigger a huge allocation.
	MaxPayload int
	// MaxSegmentBytes rotates to a fresh segment once a frame would grow
	// the append head past it. A segment always takes at least one frame.
	MaxSegmentBytes int64
}

// segFile is the append head's file; tests substitute a faulty one.
type segFile interface {
	Write([]byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is an open segment log. It is not safe for concurrent use; the
// stores serialize on their own locks.
type Log struct {
	dir  string
	cfg  Config
	f    segFile // append head; nil after Close
	head int     // append head's segment index
	size int64   // append head's size, always on a frame boundary
	// broken is set when a failed append could not be cut back off the
	// head; appending past the torn frame would bury it mid-log.
	broken error
}

// Open creates dir if needed, replays every segment oldest-first through
// apply — which gets each payload and the index of the segment holding it,
// and may keep the payload — and leaves the final segment open for append.
// A non-nil error from apply marks that frame as damaged. An empty
// directory starts at segment 1.
func Open(dir string, cfg Config, apply func(seg int, payload []byte) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, cfg: cfg}
	segs, err := l.Segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.create(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i, idx := range segs {
		if err := l.replay(idx, i == len(segs)-1, apply); err != nil {
			return nil, err
		}
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(l.Path(last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.head, l.size = f, last, st.Size()
	return l, nil
}

// Path names segment idx.
func (l *Log) Path(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d.log", l.cfg.Prefix, idx))
}

// Segments returns the segment indices present, sorted ascending.
func (l *Log) Segments() ([]int, error) {
	names, err := filepath.Glob(filepath.Join(l.dir, l.cfg.Prefix+"*.log"))
	if err != nil {
		return nil, err
	}
	var out []int
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(name), l.cfg.Prefix+"%08d.log", &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Head reports the append head's segment index and size in bytes.
func (l *Log) Head() (idx int, size int64) { return l.head, l.size }

// create starts segment idx and makes it the append head, first syncing
// the old head so a sealed segment is never the one a crash tears.
func (l *Log) create(idx int) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	path := l.Path(idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(l.cfg.Header)); err != nil {
		f.Close()
		os.Remove(path) // so the next rotation can create it afresh
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.head, l.size = f, idx, int64(len(l.cfg.Header))
	return nil
}

// replay feeds one segment's frames to apply, handling damage as the
// package comment describes.
func (l *Log) replay(idx int, final bool, apply func(int, []byte) error) error {
	path := l.Path(idx)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	damaged := func(off int64, cause string) error {
		if !final {
			return fmt.Errorf("%w: %s at offset %d of %s", ErrCorrupt, cause, off, path)
		}
		return os.Truncate(path, off)
	}

	hdr := make([]byte, len(l.cfg.Header))
	if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != l.cfg.Header {
		if !final {
			return damaged(0, "bad segment header")
		}
		// A segment torn inside its header holds no frames; rewrite the
		// header so the segment is appendable again.
		return os.WriteFile(path, []byte(l.cfg.Header), 0o644)
	}

	off := int64(len(l.cfg.Header))
	prefix := make([]byte, frameOverhead)
	for {
		if _, err := io.ReadFull(f, prefix); err != nil {
			if err == io.EOF {
				return nil // clean end
			}
			return damaged(off, "torn frame header")
		}
		length := binary.LittleEndian.Uint32(prefix[0:4])
		if length == 0 || length > uint32(l.cfg.MaxPayload) {
			return damaged(off, "implausible frame length")
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return damaged(off, "torn payload")
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(prefix[4:8]) {
			return damaged(off, "crc mismatch")
		}
		if err := apply(idx, payload); err != nil {
			return damaged(off, "undecodable record: "+err.Error())
		}
		off += frameOverhead + int64(length)
	}
}

// Append frames payload onto the append head, rotating first if the frame
// would grow the head past MaxSegmentBytes, and returns the index of the
// segment the frame landed in. A failed write is cut back off the head, so
// a later frame never follows a torn one; if that cut fails too, the log
// refuses further appends until it is reopened, whose replay truncates
// the tear.
func (l *Log) Append(payload []byte) (int, error) {
	switch {
	case l.f == nil:
		return 0, errClosed
	case l.broken != nil:
		return 0, l.broken
	case len(payload) == 0 || len(payload) > l.cfg.MaxPayload:
		return 0, fmt.Errorf("seglog: payload of %d bytes outside the 1..%d-byte frame range", len(payload), l.cfg.MaxPayload)
	}
	need := int64(frameOverhead + len(payload))
	if l.size+need > l.cfg.MaxSegmentBytes && l.size > int64(len(l.cfg.Header)) {
		if err := l.create(l.head + 1); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, need)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameOverhead:], payload)
	if _, err := l.f.Write(frame); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("seglog: segment %d holds a torn frame (write: %v; truncate: %v); reopen the log", l.head, err, terr)
			return 0, l.broken
		}
		return 0, err
	}
	l.size += need
	return l.head, nil
}

// Sync flushes the append head to stable storage.
func (l *Log) Sync() error {
	if l.f == nil {
		return errClosed
	}
	return l.f.Sync()
}

// Remove deletes sealed segment idx; the append head cannot be removed.
func (l *Log) Remove(idx int) error {
	if idx == l.head {
		return fmt.Errorf("seglog: segment %d is the append head", idx)
	}
	return os.Remove(l.Path(idx))
}

// Close syncs and closes the append head. Closing twice is a no-op.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
