package traces

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"insidedropbox/internal/wire"
)

// Reader decodes flow-record CSV, the format Writer produces, back into
// records. It is strict: a malformed row, field or value ends the stream
// with an error naming the line the row starts on and the column, such
// as `traces: csv line 812, column "bytes_up": invalid integer "12x"`. A
// value that does not parse is never read as 0. Errors are sticky: once
// Read fails, it keeps returning that error.
//
// Rows follow encoding/csv's rules (RFC 4180 quoting with doubled
// quotes, quoted commas and line breaks, blank lines skipped, CRLF line
// ends accepted), with one refinement that makes every Writer output
// round-trip: the header row's line end decides what a CRLF inside a
// quoted field means. In a file whose header ends in CRLF it is a line
// break and reads as "\n", as encoding/csv reads it; in a file whose
// header ends in "\n", as Writer's do, it is field content and reads
// back verbatim.
//
// An anonymised client column (the "h" + 12-hex-digit token) reads back
// as address 0: the token itself is not carried into the record. The
// server column must be a dotted quad.
//
// Returned records own all their memory: strings come from a bounded
// intern table or are copied, never sliced from the read buffer, so
// records stay valid across later Read calls.
type Reader struct {
	br     *bufio.Reader
	err    error // sticky
	header bool  // header row read and checked
	crlf   bool  // the header row ended in CRLF
	line   int   // physical lines consumed so far
	start  int   // line the current row starts on

	fields [len(csvHeader)][]byte
	ends   []int  // quoted path: field end offsets into quoted
	quoted []byte // quoted path: unescaped field bytes
	long   []byte // a line longer than the read buffer
	intern map[string]string
}

// csvReadBuffer is the read buffer size. Rows longer than it still
// decode, through a copy.
const csvReadBuffer = 64 << 10

// Intern-table bounds. A simulated trace carries a few hundred distinct
// SNI, certificate and FQDN strings; the bounds cap what hostile input
// can make the table hold.
const (
	maxInterned  = 4096
	maxInternLen = 256
)

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		br:     bufio.NewReaderSize(r, csvReadBuffer),
		intern: make(map[string]string),
	}
}

// Read returns the next record, or io.EOF after the last one.
func (r *Reader) Read() (*FlowRecord, error) {
	if r.err != nil {
		return nil, r.err
	}
	if !r.header {
		if r.err = r.readHeader(); r.err != nil {
			return nil, r.err
		}
		r.header = true
	}
	if r.err = r.readRow(); r.err != nil {
		return nil, r.err
	}
	rec, err := r.decode()
	if err != nil {
		r.err = err
		return nil, err
	}
	return rec, nil
}

// readHeader reads the header row and checks its column names.
func (r *Reader) readHeader() error {
	if err := r.readRow(); err != nil {
		return err
	}
	for i, name := range csvHeader {
		if string(r.fields[i]) != name {
			return r.errorf(i, "header names %q, want %q", clip(r.fields[i]), name)
		}
	}
	return nil
}

// readLine returns the next physical line, its "\n" included (absent
// only on a final line that lacks one), or io.EOF when none is left.
// The slice is valid until the next call.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
	}
	if err != nil {
		if err != io.EOF {
			err = fmt.Errorf("traces: reading csv line %d: %w", r.line+1, err)
		}
		return nil, err
	}
	r.line++
	if !r.header {
		r.crlf = bytes.HasSuffix(line, []byte("\r\n"))
	}
	return line, nil
}

// trimEOL strips a line's "\n" or "\r\n" ending, or the "\r" a final
// line may end with.
func trimEOL(line []byte) []byte {
	return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
}

// readRow splits the next non-blank row into r.fields, which stay valid
// until the next readRow. A row without quotes is split in place in the
// read buffer; one with a quote goes through readQuoted.
func (r *Reader) readRow() error {
	var line []byte
	for {
		l, err := r.readLine()
		if err != nil {
			return err
		}
		if line = trimEOL(l); len(line) > 0 {
			if bytes.IndexByte(line, '"') >= 0 {
				r.start = r.line
				return r.readQuoted(l)
			}
			break
		}
	}
	r.start = r.line
	last := len(r.fields) - 1
	for i := 0; i < last; i++ {
		j := bytes.IndexByte(line, ',')
		if j < 0 {
			return r.errorf(i+1, "missing: the row has %d of %d fields", i+1, len(r.fields))
		}
		r.fields[i], line = line[:j], line[j+1:]
	}
	if j := bytes.IndexByte(line, ','); j >= 0 {
		return r.errorf(last, "extra field %q after it: the row has more than %d fields", clip(line[j+1:]), len(r.fields))
	}
	r.fields[last] = line
	return nil
}

// readQuoted splits a row that contains a quote, starting from its first
// physical line, with encoding/csv's quoting rules; a quoted field may
// continue over later lines. Field bytes are unescaped into r.quoted.
func (r *Reader) readQuoted(line []byte) error {
	r.quoted, r.ends = r.quoted[:0], r.ends[:0]
	col := func() int { return min(len(r.ends), len(r.fields)-1) }
	for {
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field: runs to the next comma or the end of line.
			field, more := line, false
			if j := bytes.IndexByte(line, ','); j >= 0 {
				field, line, more = line[:j], line[j+1:], true
			} else {
				field = trimEOL(line)
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return r.errorf(col(), "bare \" in unquoted field %q", clip(field))
			}
			r.quoted = append(r.quoted, field...)
			r.ends = append(r.ends, len(r.quoted))
			if !more {
				break
			}
			continue
		}
		// Quoted field: runs to the closing quote, across lines.
		line = line[1:]
		for {
			if j := bytes.IndexByte(line, '"'); j >= 0 {
				r.quoted = append(r.quoted, line[:j]...)
				line = line[j+1:]
				if len(line) > 0 && line[0] == '"' {
					r.quoted = append(r.quoted, '"')
					line = line[1:]
					continue
				}
				break
			}
			if len(line) == 0 {
				return r.errorf(col(), "quoted field not terminated before end of input")
			}
			if r.crlf && bytes.HasSuffix(line, []byte("\r\n")) {
				r.quoted = append(append(r.quoted, line[:len(line)-2]...), '\n')
			} else {
				r.quoted = append(r.quoted, line...)
			}
			next, err := r.readLine()
			if err == io.EOF {
				return r.errorf(col(), "quoted field not terminated before end of input")
			}
			if err != nil {
				return err
			}
			line = next
		}
		if len(line) > 0 && line[0] != ',' && len(trimEOL(line)) > 0 {
			return r.errorf(col(), "extraneous %q after closing quote", clip(trimEOL(line)))
		}
		r.ends = append(r.ends, len(r.quoted))
		if len(line) > 0 && line[0] == ',' {
			line = line[1:]
			continue
		}
		break
	}
	if n := len(r.ends); n != len(r.fields) {
		if n < len(r.fields) {
			return r.errorf(n, "missing: the row has %d of %d fields", n, len(r.fields))
		}
		return r.errorf(len(r.fields)-1, "extra field %q after it: the row has %d fields, want %d",
			clip(r.quoted[r.ends[len(r.fields)-1]:r.ends[len(r.fields)]]), n, len(r.fields))
	}
	from := 0
	for i, end := range r.ends {
		r.fields[i], from = r.quoted[from:end], end
	}
	return nil
}

// decode parses r.fields into a new record; column indices follow
// csvHeader. The record copies what it keeps, so it outlives the read
// buffer.
func (r *Reader) decode() (*FlowRecord, error) {
	f := &r.fields
	rec := &FlowRecord{VP: r.str(f[0])}
	var ok bool
	if rec.Client, ok = parseAddr(f[1], true); !ok {
		return nil, r.errorf(1, "invalid address %q: want a dotted quad or an h + 12-hex-digit token", clip(f[1]))
	}
	if rec.Server, ok = parseAddr(f[2], false); !ok {
		return nil, r.errorf(2, "invalid address %q: want a dotted quad", clip(f[2]))
	}
	p := intParser{r: r}
	rec.ClientPort = p.port(3)
	rec.ServerPort = p.port(4)
	rec.FirstPacket = time.Duration(p.int64(5))
	rec.LastPacket = time.Duration(p.int64(6))
	rec.LastPayloadUp = time.Duration(p.int64(7))
	rec.LastPayloadDown = time.Duration(p.int64(8))
	rec.BytesUp = p.int64(9)
	rec.BytesDown = p.int64(10)
	rec.PktsUp = p.int(11)
	rec.PktsDown = p.int(12)
	rec.PSHUp = p.int(13)
	rec.PSHDown = p.int(14)
	rec.RetransUp = p.int(15)
	rec.RetransDown = p.int(16)
	rec.MinRTT = p.micros(17)
	rec.RTTSamples = p.int(18)
	rec.NotifyHost = p.uint64(22)
	if p.err != nil {
		return nil, p.err
	}
	rec.SNI, rec.CertName, rec.FQDN = r.str(f[19]), r.str(f[20]), r.str(f[21])
	var err error
	if rec.NotifyNamespaces, err = r.namespaces(f[23]); err != nil {
		return nil, err
	}
	for i, dst := range [...]*bool{&rec.SawSYN, &rec.SawFIN, &rec.SawRST, &rec.ServerClosed} {
		col := 24 + i
		switch string(f[col]) {
		case "1":
			*dst = true
		case "0":
		default:
			return nil, r.errorf(col, "invalid flag %q: want 0 or 1", clip(f[col]))
		}
	}
	return rec, nil
}

// intParser parses the numeric columns of r.fields, keeping the first
// error so decode can check once.
type intParser struct {
	r   *Reader
	err error
}

// value parses column col as a decimal integer in [lo, hi].
func (p *intParser) value(col int, lo, hi int64) int64 {
	if p.err != nil {
		return 0
	}
	b := p.r.fields[col]
	v, err := parseInt(b)
	if err == nil && lo <= v && v <= hi {
		return v
	}
	p.err = p.r.numberError(col, b, err, strconv.FormatInt(lo, 10), strconv.FormatInt(hi, 10))
	return 0
}

func (p *intParser) int64(col int) int64 { return p.value(col, math.MinInt64, math.MaxInt64) }
func (p *intParser) int(col int) int     { return int(p.value(col, math.MinInt, math.MaxInt)) }
func (p *intParser) port(col int) uint16 { return uint16(p.value(col, 0, math.MaxUint16)) }

// micros parses a microsecond column into a Duration that must not
// overflow.
func (p *intParser) micros(col int) time.Duration {
	const us = int64(time.Microsecond)
	return time.Duration(p.value(col, math.MinInt64/us, math.MaxInt64/us) * us)
}

// uint64 parses an unsigned 64-bit column.
func (p *intParser) uint64(col int) uint64 {
	if p.err != nil {
		return 0
	}
	b := p.r.fields[col]
	v, err := parseUint(b)
	if err != nil {
		p.err = p.r.numberError(col, b, err, "0", strconv.FormatUint(math.MaxUint64, 10))
	}
	return v
}

// numberError reports field b of column col as not an integer (err is
// errSyntax) or as outside [lo, hi].
func (r *Reader) numberError(col int, b []byte, err error, lo, hi string) error {
	if err == errSyntax {
		return r.errorf(col, "invalid integer %q", clip(b))
	}
	return r.errorf(col, "integer %q out of range [%s, %s]", clip(b), lo, hi)
}

// errSyntax and errRange tell the integer parsers' two failures apart.
var (
	errSyntax = errors.New("invalid integer")
	errRange  = errors.New("integer out of range")
)

// parseUint parses a non-empty run of ASCII decimal digits (no sign)
// that fits in 64 bits.
func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, errSyntax
	}
	var v uint64
	for i, c := range b {
		d := uint64(c - '0')
		if d > 9 {
			return 0, errSyntax
		}
		// 19 digits always fit; check from the 20th on.
		if i >= 19 && v > (math.MaxUint64-d)/10 {
			return 0, errRange
		}
		v = v*10 + d
	}
	return v, nil
}

// parseInt parses an optionally negative decimal integer that fits in
// an int64. Up to 18 digits cannot overflow and take a loop without the
// check; longer input goes through parseLongInt.
func parseInt(b []byte) (int64, error) {
	digits := b
	if len(b) > 0 && b[0] == '-' {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return parseLongInt(digits, len(digits) < len(b))
	}
	var v int64
	for _, c := range digits {
		d := c - '0'
		if d > 9 {
			return 0, errSyntax
		}
		v = v*10 + int64(d)
	}
	if len(digits) < len(b) {
		v = -v
	}
	return v, nil
}

// parseLongInt is parseInt's range-checked path for the digits of a
// value, negative if neg.
func parseLongInt(digits []byte, neg bool) (int64, error) {
	u, err := parseUint(digits)
	switch {
	case err != nil:
		return 0, err
	case neg && u <= 1<<63:
		return int64(-u), nil
	case !neg && u <= math.MaxInt64:
		return int64(u), nil
	}
	return 0, errRange
}

// parseAddr parses a dotted quad; with token set it also accepts the
// anonymisation token ("h" + 12 lowercase hex digits), which reads as
// address 0.
func parseAddr(b []byte, token bool) (wire.IP, bool) {
	if token && len(b) == 13 && b[0] == 'h' {
		for _, c := range b[1:] {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return 0, false
			}
		}
		return 0, true
	}
	var ip uint32
	for k := 0; k < 4; k++ {
		if k > 0 {
			if len(b) == 0 || b[0] != '.' {
				return 0, false
			}
			b = b[1:]
		}
		n, v := 0, uint32(0)
		for n < len(b) && n < 3 && b[n]-'0' <= 9 {
			v = v*10 + uint32(b[n]-'0')
			n++
		}
		if n == 0 || v > 255 {
			return 0, false
		}
		ip, b = ip<<8|v, b[n:]
	}
	return wire.IP(ip), len(b) == 0
}

// namespaces parses the ';'-separated notify_ns column; empty is nil.
func (r *Reader) namespaces(b []byte) ([]uint32, error) {
	if len(b) == 0 {
		return nil, nil
	}
	ns := make([]uint32, 0, bytes.Count(b, []byte{';'})+1)
	for rest := b; ; {
		part := rest
		j := bytes.IndexByte(rest, ';')
		if j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		}
		v, err := parseUint(part)
		if err == nil && v > math.MaxUint32 {
			err = errRange
		}
		if err != nil {
			return nil, r.numberError(23, part, err, "0", strconv.FormatUint(math.MaxUint32, 10))
		}
		ns = append(ns, uint32(v))
		if j < 0 {
			return ns, nil
		}
	}
}

// str returns b as a string the record owns, shared through the intern
// table while it has room.
func (r *Reader) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := r.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.intern) < maxInterned && len(s) <= maxInternLen {
		r.intern[s] = s
	}
	return s
}

// errorf builds an error located at the current row's first line and
// column col.
func (r *Reader) errorf(col int, format string, args ...any) error {
	return fmt.Errorf("traces: csv line %d, column %q: %s", r.start, csvHeader[col], fmt.Sprintf(format, args...))
}

// clip bounds a field quoted in an error message.
func clip(b []byte) []byte {
	const max = 64
	if len(b) > max {
		return append(b[:max:max], "..."...)
	}
	return b
}
