package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		{Op: Read, Addr: 0x1000, Time: 0},
		{Op: Write, Addr: 0x1040, Time: 27},
		{Op: Write, Addr: 0xdeadbeef, Time: 150},
		{Op: Read, Addr: 0, Time: 150},
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("op letters wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Error("unknown op rendering")
	}
	for _, s := range []string{"R", "r"} {
		if op, err := ParseOp(s); err != nil || op != Read {
			t.Errorf("ParseOp(%q) = %v, %v", s, op, err)
		}
	}
	if _, err := ParseOp("x"); err == nil {
		t.Error("parsed bogus op")
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource(sampleRecords())
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Error("collect mismatch")
	}
	if _, ok := src.Next(); ok {
		t.Error("source yielded past end")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(sampleRecords()); err != nil {
		t.Error(err)
	}
	bad := []Record{{Time: 10}, {Time: 5}}
	if err := Validate(bad); err == nil {
		t.Error("accepted time-disordered trace")
	}
	if err := Validate(nil); err != nil {
		t.Error("rejected empty trace")
	}
}

func TestLimit(t *testing.T) {
	src := NewLimit(NewSliceSource(sampleRecords()), 2)
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("limit yielded %d records, want 2", len(got))
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	w.Comment("synthetic trace")
	for _, r := range sampleRecords() {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(sampleRecords()) {
		t.Errorf("writer count = %d", w.Count())
	}
	got, err := Collect(NewTextReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, sampleRecords())
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nR 0x10 5\n   \n# mid\nW 16 7\n"
	got, err := Collect(NewTextReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Read, 0x10, 5}, {Write, 16, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []string{
		"R 0x10",            // missing time
		"X 0x10 5",          // bad op
		"R zz 5",            // bad addr
		"R 0x10 notatime",   // bad time
		"R 0x10 -5",         // negative time
		"R 0x10 5 trailing", // extra field
	}
	for _, in := range cases {
		_, err := Collect(NewTextReader(strings.NewReader(in)))
		if err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestBinRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	for _, r := range sampleRecords() {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8+len(sampleRecords())*binRecordSize {
		t.Errorf("encoded %d bytes", buf.Len())
	}
	got, err := Collect(NewBinReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBinReader(&buf))
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace: %v, %v", got, err)
	}
}

func TestBinBadMagic(t *testing.T) {
	_, err := Collect(NewBinReader(strings.NewReader("NOTATRACE HEADER")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBinBadVersion(t *testing.T) {
	raw := append([]byte("WOMT"), 99, 0, 0, 0)
	_, err := Collect(NewBinReader(bytes.NewReader(raw)))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want version error", err)
	}
}

func TestBinBadOpByte(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	w.Write(Record{Op: Read})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 7 // corrupt the op byte of the first record
	_, err := Collect(NewBinReader(bytes.NewReader(raw)))
	if err == nil {
		t.Error("accepted corrupt op byte")
	}
}

// TestBinQuickRoundTrip property-checks arbitrary records through the
// binary codec.
func TestBinQuickRoundTrip(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, int(n%50))
		tm := int64(0)
		for i := range recs {
			tm += rng.Int63n(100)
			recs[i] = Record{Op: Op(rng.Intn(2)), Addr: rng.Uint64(), Time: tm}
		}
		var buf bytes.Buffer
		w := NewBinWriter(&buf)
		for _, r := range recs {
			w.Write(r)
		}
		if w.Flush() != nil {
			return false
		}
		got, err := Collect(NewBinReader(&buf))
		if err != nil {
			return false
		}
		return len(got) == len(recs) && (len(recs) == 0 || reflect.DeepEqual(got, recs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// binTrace encodes n records in the binary format.
func binTrace(t *testing.T, n int) ([]Record, []byte) {
	t.Helper()
	recs := make([]Record, n)
	var buf bytes.Buffer
	w := NewBinWriter(&buf)
	for i := range recs {
		recs[i] = Record{Op: Op(i % 2), Addr: uint64(i) * 64, Time: int64(i) * 10}
		w.Write(recs[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return recs, buf.Bytes()
}

// TestCollectSizedPresizes checks the upload path's capacity: a binary
// stream of known size decodes into exactly one slice of its record count,
// a size claiming more than max allocates at most max, and a stream shorter
// than its size yields exactly its records.
func TestCollectSizedPresizes(t *testing.T) {
	const n = 1000
	recs, bin := binTrace(t, n)
	got, err := CollectSized(bytes.NewReader(bin), int64(len(bin)), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || cap(got) != n || !reflect.DeepEqual(got, recs) {
		t.Errorf("exact size: len %d cap %d, want %d records in a slice of cap %d", len(got), cap(got), n, n)
	}
	// A size hint past max (a lying Content-Length) allocates at most max.
	got, err = CollectSized(bytes.NewReader(bin), 1<<40, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || cap(got) > 2*n || !reflect.DeepEqual(got, recs) {
		t.Errorf("oversized hint: len %d cap %d, want %d records and cap <= %d", len(got), cap(got), n, 2*n)
	}
	// A body shorter than its hint yields exactly its records.
	got, err = CollectSized(bytes.NewReader(bin), int64(len(bin))*3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("short body: got %d records, want %d", len(got), n)
	}
	// More records than max still fail, presized or not.
	for _, size := range []int64{int64(len(bin)), -1} {
		if _, err := CollectSized(bytes.NewReader(bin), size, n-1); !errors.Is(err, ErrTooLong) {
			t.Errorf("size %d: over-limit stream = %v, want ErrTooLong", size, err)
		}
	}
	if _, err := CollectSized(bytes.NewReader(bin), int64(len(bin)), n); err != nil {
		t.Errorf("stream of exactly max records = %v", err)
	}
}

// TestCollectSizedGrowsAsBefore checks that text streams and streams of
// unknown size (a chunked upload) decode exactly as an unsized Collect over
// NewAutoReader does.
func TestCollectSizedGrowsAsBefore(t *testing.T) {
	recs, bin := binTrace(t, 300)
	var text bytes.Buffer
	tw := NewTextWriter(&text)
	for _, r := range recs {
		tw.Write(r)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		size int64
	}{
		{"binary-chunked", bin, -1},
		{"text", text.Bytes(), int64(text.Len())},
		{"text-chunked", text.Bytes(), -1},
		{"header-only", bin[:binHeaderSize], binHeaderSize},
		{"malformed", append(bin[:binHeaderSize:binHeaderSize], 7, 1, 2), binHeaderSize + 3},
	}
	for _, c := range cases {
		want, wantErr := Collect(NewAutoReader(bytes.NewReader(c.body)))
		got, err := CollectSized(bytes.NewReader(c.body), c.size, 1000)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: got %d records (err %v), want %d (err %v)", c.name, len(got), err, len(want), wantErr)
		}
	}
}

// TestCollectSizedAllocs pins the decode cost: a presized binary upload
// allocates its readers and one record slice, nothing per record.
func TestCollectSizedAllocs(t *testing.T) {
	_, bin := binTrace(t, 5000)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := CollectSized(bytes.NewReader(bin), int64(len(bin)), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("decoding 5000 records allocates %v times, want a constant handful", allocs)
	}
}
