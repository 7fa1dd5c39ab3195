package traces

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// DefaultFormat is the format exports use when none is named: the CSV of
// the paper's public trace release.
const DefaultFormat = "csv"

// RecordReader is the streaming source every trace deserialization
// implements: Read returns records until io.EOF. The inverse of
// RecordWriter.
type RecordReader interface {
	Read() (*FlowRecord, error)
}

// format is one trace serialization: its name, conventional file
// extension, the leading bytes every stream of it starts with, and its
// writer and reader constructors.
type format struct {
	name, ext string
	signature []byte
	newWriter func(w io.Writer, anonymize bool, workers int) RecordWriter
	newReader func(r io.Reader) RecordReader
}

// csvHeaderLine is the header row every CSV trace opens with.
var csvHeaderLine = []byte(strings.Join(csvHeader[:], ",") + "\n")

// formats is the one list of trace serializations, in help order.
var formats = []format{
	{"csv", ".csv", csvHeaderLine, func(w io.Writer, anonymize bool, _ int) RecordWriter {
		cw := NewWriter(w)
		cw.Anonymize = anonymize
		return cw
	}, func(r io.Reader) RecordReader { return NewReader(r) }},
	{"binary", ".idb", binaryMagic[:], func(w io.Writer, anonymize bool, workers int) RecordWriter {
		if workers > 1 {
			pw := NewParallelBinaryWriter(w, workers)
			pw.Anonymize = anonymize
			return pw
		}
		bw := NewBinaryWriter(w)
		bw.Anonymize = anonymize
		return bw
	}, func(r io.Reader) RecordReader { return NewBinaryReader(r) }},
	{"binary-flate", ".idbf", flateMagic[:], func(w io.Writer, anonymize bool, workers int) RecordWriter {
		fw := NewFlateWriter(w, workers)
		fw.Anonymize = anonymize
		return fw
	}, func(r io.Reader) RecordReader { return NewFlateReader(r) }},
}

// Formats returns the trace format names in help order.
func Formats() []string {
	names := make([]string, len(formats))
	for i, f := range formats {
		names[i] = f.name
	}
	return names
}

func lookupFormat(name string) (format, error) {
	for _, f := range formats {
		if f.name == name {
			return f, nil
		}
	}
	return format{}, fmt.Errorf("traces: unknown export format %q (valid: %s)", name, strings.Join(Formats(), ", "))
}

// CheckFormat reports whether name is a trace format, with an error
// listing the valid names when it is not.
func CheckFormat(name string) error {
	_, err := lookupFormat(name)
	return err
}

// Ext returns the conventional file extension of a format (".csv",
// ".idb", ".idbf"); unknown names get ".csv".
func Ext(name string) string {
	f, err := lookupFormat(name)
	if err != nil {
		return formats[0].ext
	}
	return f.ext
}

// NewRecordWriter builds the writer for a named format. anonymize
// replaces client addresses with stable opaque tokens. workers sizes the
// block-encoding pool of the binary formats (< 1 means GOMAXPROCS; a
// binary stream with one worker uses the sequential writer); the output
// bytes are the same for every worker count.
func NewRecordWriter(w io.Writer, name string, anonymize bool, workers int) (RecordWriter, error) {
	f, err := lookupFormat(name)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return f.newWriter(w, anonymize, workers), nil
}

// NewRecordReader detects the format of r from its leading bytes — the
// binary magic "IDBT1\n", the flate magic "IDBF1\n", or the CSV header
// row — and returns that format's reader. Any other input is an error
// naming the offset where it stopped matching and the bytes expected
// there. When r is an io.ReadSeeker it is rewound to where it stood and
// handed to the reader itself, so the flate reader keeps SeekToRecord
// (type-assert the result to *FlateReader).
func NewRecordReader(r io.Reader) (RecordReader, error) {
	rs, seekable := r.(io.ReadSeeker)
	var start int64
	if seekable {
		pos, err := rs.Seek(0, io.SeekCurrent)
		seekable, start = err == nil, pos
	}
	br := bufio.NewReader(r)
	head, err := br.Peek(len(csvHeaderLine))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("traces: reading format signature: %w", err)
	}
	f, err := detectFormat(head)
	if err != nil {
		return nil, err
	}
	src := io.Reader(br)
	if seekable {
		if _, err := rs.Seek(start, io.SeekStart); err != nil {
			return nil, err
		}
		src = rs
	}
	return f.newReader(src), nil
}

// detectFormat matches head against every format signature. On failure
// it reports the first offset no signature accepts and, for each
// signature still matching up to there, the byte it wanted next.
func detectFormat(head []byte) (format, error) {
	best := 0
	match := make([]int, len(formats))
	for i, f := range formats {
		n := 0
		for n < len(f.signature) && n < len(head) && head[n] == f.signature[n] {
			n++
		}
		if n == len(f.signature) {
			return f, nil
		}
		match[i] = n
		best = max(best, n)
	}
	var want []string
	for i, f := range formats {
		if match[i] == best {
			want = append(want, fmt.Sprintf("%q (%s signature %s)", f.signature[best:best+1], f.name, sigLabel(f.signature)))
		}
	}
	got := "end of input"
	if best < len(head) {
		got = fmt.Sprintf("%q", head[best:best+1])
	}
	return format{}, fmt.Errorf("traces: unrecognised trace format at offset %d: got %s, want %s",
		best, got, strings.Join(want, " or "))
}

// sigLabel renders a signature for an error message, eliding the long
// CSV header row after its first columns.
func sigLabel(sig []byte) string {
	const keep = 16
	if len(sig) > keep {
		return fmt.Sprintf("%q...", sig[:keep])
	}
	return fmt.Sprintf("%q", sig)
}
