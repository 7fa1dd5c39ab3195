package traces

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// directReaders builds each format's reader without detection.
var directReaders = map[string]func(io.Reader) RecordReader{
	"csv":          func(r io.Reader) RecordReader { return NewReader(r) },
	"binary":       func(r io.Reader) RecordReader { return NewBinaryReader(r) },
	"binary-flate": func(r io.Reader) RecordReader { return NewFlateReader(r) },
}

// encodeFormat writes recs through the named format's writer.
func encodeFormat(t testing.TB, format string, anon bool, recs []*FlowRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewRecordWriter(&buf, format, anon, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains a reader up to io.EOF.
func readAll(t *testing.T, r RecordReader) []*FlowRecord {
	t.Helper()
	var out []*FlowRecord
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestNewRecordReaderMatchesDirectReaders: every format, anonymized or
// not, seekable or not, reads back through the detecting reader exactly
// as through its own reader, record for record.
func TestNewRecordReaderMatchesDirectReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var recs []*FlowRecord
	for i := 0; i < 700; i++ {
		recs = append(recs, randRecord(rng, i))
	}
	if len(directReaders) != len(Formats()) {
		t.Fatalf("test covers %d formats, package has %d", len(directReaders), len(Formats()))
	}
	for _, format := range Formats() {
		for _, anon := range []bool{false, true} {
			data := encodeFormat(t, format, anon, recs)
			want := readAll(t, directReaders[format](bytes.NewReader(data)))
			if len(want) != len(recs) {
				t.Fatalf("%s anon=%t: direct reader decoded %d of %d records", format, anon, len(want), len(recs))
			}
			for _, seekable := range []bool{true, false} {
				src := io.Reader(bytes.NewReader(data))
				if !seekable {
					src = struct{ io.Reader }{src}
				}
				r, err := NewRecordReader(src)
				if err != nil {
					t.Fatalf("%s anon=%t seekable=%t: %v", format, anon, seekable, err)
				}
				if got := readAll(t, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s anon=%t seekable=%t: detected reader decoded different records", format, anon, seekable)
				}
			}
		}
	}
}

// TestNewRecordReaderKeepsSeek: over an io.ReadSeeker the detected flate
// reader keeps SeekToRecord.
func TestNewRecordReaderKeepsSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var recs []*FlowRecord
	for i := 0; i < 300; i++ {
		recs = append(recs, randRecord(rng, i))
	}
	data := encodeFormat(t, "binary-flate", false, recs)
	want := readAll(t, NewFlateReader(bytes.NewReader(data)))

	r, err := NewRecordReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := r.(*FlateReader)
	if !ok {
		t.Fatalf("detected reader is %T, want *FlateReader", r)
	}
	if err := fr.SeekToRecord(211); err != nil {
		t.Fatal(err)
	}
	got, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[211]) {
		t.Fatal("record after SeekToRecord differs from the sequential read")
	}
}

// TestNewRecordReaderErrors: input in no known format is an error that
// names the offset where detection stopped and the bytes it expected.
func TestNewRecordReaderErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	junk := make([]byte, 64)
	rng.Read(junk)
	junk[0] = 0xfe
	for _, tc := range []struct {
		name  string
		input []byte
		want  []string
	}{
		{"empty", nil, []string{"offset 0", "end of input", `"I"`, `"v"`}},
		{"truncated binary magic", []byte("IDBT"), []string{"offset 4", "end of input", `"1" (binary signature`}},
		{"truncated shared prefix", []byte("IDB"), []string{"offset 3", `"T" (binary signature`, `"F" (binary-flate signature`}},
		{"wrong magic", []byte("IDBX1\n\x00"), []string{"offset 3", `got "X"`, `"T"`, `"F"`}},
		{"truncated csv header", csvHeaderLine[:20], []string{"offset 20", "end of input", "(csv signature"}},
		{"csv header without newline", csvHeaderLine[:len(csvHeaderLine)-1], []string{"offset " + strconv.Itoa(len(csvHeaderLine)-1), `"\n" (csv signature`}},
		{"random bytes", junk, []string{"offset 0", `got "\xfe"`}},
	} {
		_, err := NewRecordReader(bytes.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}

// TestFormatTable: names, extensions and the writer constructor agree on
// one list, and unknown names are errors listing the valid ones.
func TestFormatTable(t *testing.T) {
	if got := strings.Join(Formats(), ","); got != "csv,binary,binary-flate" {
		t.Fatalf("Formats() = %s", got)
	}
	if Formats()[0] != DefaultFormat {
		t.Fatalf("default format %q is not first", DefaultFormat)
	}
	for format, ext := range map[string]string{"csv": ".csv", "binary": ".idb", "binary-flate": ".idbf"} {
		if got := Ext(format); got != ext {
			t.Errorf("Ext(%s) = %s, want %s", format, got, ext)
		}
		if err := CheckFormat(format); err != nil {
			t.Errorf("CheckFormat(%s): %v", format, err)
		}
	}
	_, werr := NewRecordWriter(io.Discard, "xml", false, 1)
	for _, err := range []error{CheckFormat("xml"), werr} {
		if err == nil || !strings.Contains(err.Error(), `"xml"`) || !strings.Contains(err.Error(), "csv, binary, binary-flate") {
			t.Errorf("unknown format error = %v", err)
		}
	}
}

// TestNewRecordWriterWorkerInvariance: the binary formats' bytes do not
// depend on the worker count, sequential writer included.
func TestNewRecordWriterWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var recs []*FlowRecord
	for i := 0; i < 2*DefaultBlockRecords+17; i++ {
		recs = append(recs, randRecord(rng, i))
	}
	for _, format := range Formats() {
		var ref []byte
		for _, workers := range []int{1, 3, 0} {
			var buf bytes.Buffer
			w, err := NewRecordWriter(&buf, format, true, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(ref, buf.Bytes()) {
				t.Fatalf("%s: %d workers changed the output bytes", format, workers)
			}
		}
	}
}

// FuzzTraceReader feeds arbitrary bytes through format detection into
// whichever decoder the leading bytes select — CSV included — over both
// a seekable and a plain stream: any input must yield records or a clean
// error, never a panic or an endless decode.
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("IDBT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecords = 1 << 20
		for _, src := range []io.Reader{bytes.NewReader(data), struct{ io.Reader }{bytes.NewReader(data)}} {
			r, err := NewRecordReader(src)
			if err != nil {
				if !strings.Contains(err.Error(), "offset") {
					t.Fatalf("detection error without an offset: %v", err)
				}
				continue
			}
			for n := 0; ; n++ {
				if _, err := r.Read(); err != nil {
					break
				}
				if n > maxRecords {
					t.Fatal("reader yielded implausibly many records")
				}
			}
		}
	})
}
