package seglog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var testCfg = Config{Header: "SEGTST1\n", Prefix: "t-", MaxPayload: 64, MaxSegmentBytes: 48}

// openCollect opens dir and returns every replayed payload in order.
func openCollect(t *testing.T, dir string, cfg Config) (*Log, []string, error) {
	t.Helper()
	var got []string
	l, err := Open(dir, cfg, func(_ int, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return l, got, err
}

// faultyFile tears the next write halfway and can refuse to truncate.
type faultyFile struct {
	segFile
	tearNext   bool
	noTruncate bool
}

var errFault = errors.New("injected fault")

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.tearNext {
		f.tearNext = false
		n, _ := f.segFile.Write(b[:len(b)/2])
		return n, errFault
	}
	return f.segFile.Write(b)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.noTruncate {
		return errFault
	}
	return f.segFile.Truncate(size)
}

// TestFailedAppendLeavesNoTornFrame tears one append partway through its
// frame, keeps appending (far enough to rotate past the damaged segment),
// and checks that a reopen returns exactly the acknowledged payloads. When
// the torn bytes cannot be cut back off, the log must refuse appends, and
// a reopen must recover everything acknowledged before the tear.
func TestFailedAppendLeavesNoTornFrame(t *testing.T) {
	for _, noTruncate := range []bool{false, true} {
		dir := t.TempDir()
		l, _, err := openCollect(t, dir, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		ff := &faultyFile{segFile: l.f, noTruncate: noTruncate}
		l.f = ff
		var acked []string
		for _, p := range []string{"one", "two", "torn", "three", "four", "five", "six"} {
			ff.tearNext = p == "torn"
			if _, err := l.Append([]byte(p)); err == nil {
				acked = append(acked, p)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want := []string{"one", "two", "three", "four", "five", "six"}
		if noTruncate {
			want = []string{"one", "two"}
		}
		if !reflect.DeepEqual(acked, want) {
			t.Fatalf("noTruncate=%v: acknowledged %q, want %q", noTruncate, acked, want)
		}
		r, got, err := openCollect(t, dir, testCfg)
		if err != nil {
			t.Fatalf("noTruncate=%v: reopen: %v", noTruncate, err)
		}
		r.Close()
		if !reflect.DeepEqual(got, acked) {
			t.Fatalf("noTruncate=%v: replayed %q, want the acknowledged %q", noTruncate, got, acked)
		}
		if segs, _ := r.Segments(); !noTruncate && len(segs) < 2 {
			t.Fatalf("appends never rotated past the torn segment: %v", segs)
		}
	}
}

// frame encodes one payload in the on-disk frame format, independently of
// Append.
func frame(p string) []byte {
	b := make([]byte, frameOverhead, frameOverhead+len(p))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE([]byte(p)))
	return append(b, p...)
}

// wellFormed is the reference parser: the payloads before the first
// malformed frame, and whether the whole segment is well formed.
func wellFormed(data []byte, cfg Config) ([]string, bool) {
	h := len(cfg.Header)
	if len(data) < h || string(data[:h]) != cfg.Header {
		return nil, false
	}
	var out []string
	for rest := data[h:]; len(rest) > 0; {
		if len(rest) < frameOverhead {
			return out, false
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n == 0 || n > uint32(cfg.MaxPayload) || uint64(n) > uint64(len(rest)-frameOverhead) {
			return out, false
		}
		p := rest[frameOverhead : frameOverhead+int(n)]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(rest[4:8]) {
			return out, false
		}
		out = append(out, string(p))
		rest = rest[frameOverhead+int(n):]
	}
	return out, true
}

// FuzzReplay feeds arbitrary bytes to replay. As the final segment they
// must open without panic, give back exactly the frames before the first
// malformed one, and accept appends; as an interior segment they may fail
// only with ErrCorrupt, and only if malformed.
func FuzzReplay(f *testing.F) {
	valid := append([]byte(testCfg.Header), frame("alpha")...)
	valid = append(valid, frame("beta")...)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	cfg := testCfg
	cfg.MaxSegmentBytes = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		want, clean := wellFormed(data, cfg)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "t-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := openCollect(t, dir, cfg)
		if err != nil {
			t.Fatalf("final segment: open: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("final segment: replayed %q, want %q", got, want)
		}
		if _, err := l.Append([]byte("after")); err != nil {
			t.Fatalf("final segment: append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, got, err = openCollect(t, dir, cfg)
		if err != nil {
			t.Fatalf("final segment: reopen: %v", err)
		}
		l.Close()
		if want := append(want, "after"); !reflect.DeepEqual(got, want) {
			t.Fatalf("final segment: after append replayed %q, want %q", got, want)
		}

		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "t-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "t-00000002.log"), []byte(cfg.Header), 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err = openCollect(t, dir, cfg)
		switch {
		case err == nil && clean:
			l.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("interior segment: replayed %q, want %q", got, want)
			}
		case err == nil:
			l.Close()
			t.Fatal("interior segment: malformed bytes opened cleanly")
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("interior segment: err = %v, want ErrCorrupt", err)
		case clean:
			t.Fatalf("interior segment: well-formed bytes refused: %v", err)
		}
	})
}
