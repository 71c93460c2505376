package trace

import (
	"bytes"
	"testing"
)

// FuzzTrace exercises the decode paths the womd service exposes to
// untrusted uploads: arbitrary bytes must decode to records or a clean
// error — never a panic — and everything that decodes must survive a
// binary encode/decode round trip bit-for-bit.
func FuzzTrace(f *testing.F) {
	// A valid binary trace as a seed.
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	w.Write(Record{Op: Read, Addr: 0x1f40, Time: 2700})
	w.Write(Record{Op: Write, Addr: 0x1f80, Time: 2754})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})                                            // empty stream
	f.Add(buf.Bytes()[:8])                                     // header only
	f.Add(buf.Bytes()[:12])                                    // truncated record
	f.Add([]byte("WOMT\x02\x00\x00\x00"))                      // unsupported version
	f.Add([]byte("WXYZ\x01\x00\x00\x00"))                      // bad magic
	f.Add([]byte("# comment\nR 0x1f40 2700\nW 0x1f80 2754\n")) // text form
	f.Add([]byte("R 0x1f40 notatime\n"))                       // malformed text

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := CollectSized(bytes.NewReader(data), int64(len(data)), 1<<16)
		if err != nil {
			return // malformed input must error, not panic
		}
		for _, r := range recs {
			if r.Op != Read && r.Op != Write {
				t.Fatalf("decoded invalid op %d", r.Op)
			}
		}
		var enc bytes.Buffer
		bw := NewBinWriter(&enc)
		for _, r := range recs {
			bw.Write(r)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("encoding decoded records: %v", err)
		}
		back, err := Collect(NewBinReader(bytes.NewReader(enc.Bytes())))
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip length %d != %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d: round trip %+v != %+v", i, back[i], recs[i])
			}
		}
	})
}
