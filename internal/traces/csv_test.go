package traces

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"insidedropbox/internal/wire"
)

// referenceCSV renders records through encoding/csv with the exact field
// formatting the pre-rewrite Writer used — the byte-identity oracle for
// the append-based encoder (golden stream hashes across the repo pin the
// same bytes transitively).
func referenceCSV(t *testing.T, recs []*FlowRecord, anonymize bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader[:]); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		client := r.Client.String()
		if anonymize {
			client = anonIP(r.Client)
		}
		var ns []string
		for _, n := range r.NotifyNamespaces {
			ns = append(ns, strconv.FormatUint(uint64(n), 10))
		}
		row := []string{
			r.VP, client, r.Server.String(),
			strconv.Itoa(int(r.ClientPort)), strconv.Itoa(int(r.ServerPort)),
			strconv.FormatInt(int64(r.FirstPacket), 10),
			strconv.FormatInt(int64(r.LastPacket), 10),
			strconv.FormatInt(int64(r.LastPayloadUp), 10),
			strconv.FormatInt(int64(r.LastPayloadDown), 10),
			strconv.FormatInt(r.BytesUp, 10), strconv.FormatInt(r.BytesDown, 10),
			strconv.Itoa(r.PktsUp), strconv.Itoa(r.PktsDown),
			strconv.Itoa(r.PSHUp), strconv.Itoa(r.PSHDown),
			strconv.Itoa(r.RetransUp), strconv.Itoa(r.RetransDown),
			strconv.FormatInt(r.MinRTT.Microseconds(), 10),
			strconv.Itoa(r.RTTSamples),
			r.SNI, r.CertName, r.FQDN,
			strconv.FormatUint(r.NotifyHost, 10), strings.Join(ns, ";"),
			boolRef(r.SawSYN), boolRef(r.SawFIN), boolRef(r.SawRST), boolRef(r.ServerClosed),
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func boolRef(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// csvOracleRecords is the input of the encoding/csv oracle tests:
// randomised records plus records whose string columns carry
// quote-triggering and edge-case values (never produced by the
// simulator, but neither codec may silently diverge on them).
func csvOracleRecords() []*FlowRecord {
	rng := rand.New(rand.NewSource(41))
	var recs []*FlowRecord
	for i := 0; i < 2_000; i++ {
		recs = append(recs, randRecord(rng, i))
	}
	hostile := []string{
		"", `\.`, "a,b", `say "hi"`, "line\nbreak", "cr\rhere",
		" leadingspace", "\ttab", "é-utf8", `""`, ",", "\n",
	}
	for i, s := range hostile {
		r := randRecord(rng, i)
		r.VP = s
		r.SNI = hostile[(i+1)%len(hostile)]
		r.CertName = hostile[(i+2)%len(hostile)]
		r.FQDN = hostile[(i+3)%len(hostile)]
		recs = append(recs, r)
	}
	return recs
}

// TestCSVMatchesEncodingCSV pins the append-based encoder to the
// encoding/csv reference byte for byte, including fields that trigger
// csv quoting.
func TestCSVMatchesEncodingCSV(t *testing.T) {
	recs := csvOracleRecords()
	for _, anon := range []bool{false, true} {
		want := referenceCSV(t, recs, anon)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Anonymize = anon
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			got := buf.Bytes()
			n := min(len(got), len(want))
			at := n
			for i := 0; i < n; i++ {
				if got[i] != want[i] {
					at = i
					break
				}
			}
			lo := max(0, at-60)
			t.Fatalf("anon=%v: output diverges from encoding/csv at byte %d:\n got %q\nwant %q",
				anon, at, got[lo:min(len(got), at+60)], want[lo:min(len(want), at+60)])
		}
	}
}

// TestCSVWriteAllocations pins the hot-path allocation budget the
// append-based encoder bought (was 13.4 allocs/rec via encoding/csv +
// strconv.Format; the budget is <= 2).
func TestCSVWriteAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := make([]*FlowRecord, 64)
	for i := range recs {
		recs[i] = randRecord(rng, i)
	}
	w := NewWriter(io.Discard)
	w.Anonymize = true
	// Warm up: header row, row scratch growth, bufio fill.
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Write(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("CSV Write allocates %.1f/rec, want <= 2", allocs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// referenceDecode reads CSV through encoding/csv and converts each row
// with strconv and net/netip: the read-side oracle for Reader.
func referenceDecode(t *testing.T, data []byte) []*FlowRecord {
	t.Helper()
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = len(csvHeader)
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !slices.Equal(rows[0], csvHeader[:]) {
		t.Fatalf("reference decode: bad header row")
	}
	var recs []*FlowRecord
	for line, row := range rows[1:] {
		num := func(col, bits int) int64 {
			v, err := strconv.ParseInt(row[col], 10, bits)
			if err != nil {
				t.Fatalf("row %d column %s: %v", line, csvHeader[col], err)
			}
			return v
		}
		unum := func(s string, bits int) uint64 {
			v, err := strconv.ParseUint(s, 10, bits)
			if err != nil {
				t.Fatalf("row %d: %v", line, err)
			}
			return v
		}
		addr := func(col int) wire.IP {
			if col == 1 && len(row[col]) == 13 && row[col][0] == 'h' {
				return 0 // anonymised
			}
			a, err := netip.ParseAddr(row[col])
			if err != nil || !a.Is4() {
				t.Fatalf("row %d column %s: %q is not an IPv4 address", line, csvHeader[col], row[col])
			}
			b := a.As4()
			return wire.MakeIP(b[0], b[1], b[2], b[3])
		}
		r := &FlowRecord{
			VP: row[0], Client: addr(1), Server: addr(2),
			ClientPort: uint16(num(3, 17)), ServerPort: uint16(num(4, 17)),
			FirstPacket: time.Duration(num(5, 64)), LastPacket: time.Duration(num(6, 64)),
			LastPayloadUp: time.Duration(num(7, 64)), LastPayloadDown: time.Duration(num(8, 64)),
			BytesUp: num(9, 64), BytesDown: num(10, 64),
			PktsUp: int(num(11, 64)), PktsDown: int(num(12, 64)),
			PSHUp: int(num(13, 64)), PSHDown: int(num(14, 64)),
			RetransUp: int(num(15, 64)), RetransDown: int(num(16, 64)),
			MinRTT: time.Duration(num(17, 64)) * time.Microsecond, RTTSamples: int(num(18, 64)),
			SNI: row[19], CertName: row[20], FQDN: row[21],
			NotifyHost: unum(row[22], 64),
			SawSYN:     row[24] == "1", SawFIN: row[25] == "1", SawRST: row[26] == "1", ServerClosed: row[27] == "1",
		}
		if row[23] != "" {
			for _, s := range strings.Split(row[23], ";") {
				r.NotifyNamespaces = append(r.NotifyNamespaces, uint32(unum(s, 32)))
			}
		}
		recs = append(recs, r)
	}
	return recs
}

// writeCSV encodes recs with Writer.
func writeCSV(t testing.TB, recs []*FlowRecord, anonymize bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Anonymize = anonymize
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

// readCSV decodes every record of src with Reader, up to io.EOF.
func readCSV(t *testing.T, src io.Reader) []*FlowRecord {
	t.Helper()
	rd := NewReader(src)
	var recs []*FlowRecord
	for {
		r, err := rd.Read()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(recs), err)
		}
		recs = append(recs, r)
	}
}

// csvWritten is what Reader must return for r written by Writer: RTTs
// at microsecond precision, an anonymised client as address 0, and no
// namespaces as nil.
func csvWritten(r *FlowRecord, anonymize bool) *FlowRecord {
	c := normalize(r)
	c.MinRTT = c.MinRTT.Truncate(time.Microsecond)
	if anonymize {
		c.Client = 0
	}
	return c
}

// TestCSVReaderMatchesEncodingCSV is the read-side twin of
// TestCSVMatchesEncodingCSV: over the same records and hostile strings,
// plus rows longer than the read buffer, Reader returns exactly what an
// encoding/csv decode returns, from Writer's output and from its CRLF
// rendition; from Writer's output that is also the records written.
// Every record is compared only after the whole stream is read, so a
// record aliasing the read buffer would show up corrupted.
func TestCSVReaderMatchesEncodingCSV(t *testing.T) {
	recs := csvOracleRecords()
	// Lines longer than the read buffer, unquoted and quoted, then an
	// ordinary row to show reading resumes cleanly after them.
	long := *recs[0]
	long.CertName = strings.Repeat("c", csvReadBuffer+100)
	longQuoted := *recs[1]
	longQuoted.SNI = strings.Repeat("x,\"y", csvReadBuffer/4+100) + "\nz\n"
	recs = append(recs, &long, &longQuoted, recs[2])

	for _, anon := range []bool{false, true} {
		data := writeCSV(t, recs, anon)
		for _, crlf := range []bool{false, true} {
			in := data
			if crlf {
				in = bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n"))
			}
			want := referenceDecode(t, in)
			if len(want) != len(recs) {
				t.Fatalf("anon=%v crlf=%v: reference decoded %d records, %d written", anon, crlf, len(want), len(recs))
			}
			var src io.Reader = bytes.NewReader(in)
			if anon && !crlf {
				src = iotest.OneByteReader(src) // partial fills at every byte
			}
			got := readCSV(t, src)
			if len(got) != len(want) {
				t.Fatalf("anon=%v crlf=%v: read %d records, want %d", anon, crlf, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
					t.Fatalf("anon=%v crlf=%v: record %d differs from encoding/csv:\n got %+v\nwant %+v", anon, crlf, i, got[i], want[i])
				}
				if w := csvWritten(recs[i], anon); !crlf && !reflect.DeepEqual(normalize(got[i]), w) {
					t.Fatalf("anon=%v: record %d differs from the record written:\n got %+v\nwant %+v", anon, i, got[i], w)
				}
			}
		}
	}
}

// TestCSVReaderStrict corrupts each column of a valid row in turn, and
// the row structure itself: every case is an error naming the row's
// line and a column, never a record, and the error sticks.
func TestCSVReaderStrict(t *testing.T) {
	valid := sampleRecord()
	multi := sampleRecord()
	multi.SNI = "two\nlines" // rows 2-3, so the bad row starts on line 4
	prefix := writeCSV(t, []*FlowRecord{multi}, false)
	row := strings.Split(strings.TrimSuffix(string(writeCSV(t, []*FlowRecord{valid}, false)[len(csvHeaderLine):]), "\n"), ",")
	if len(row) != len(csvHeader) {
		t.Fatalf("sample row has %d fields", len(row))
	}

	type tc struct {
		name, row, col string
	}
	var cases []tc
	corrupt := func(col int, v string) {
		f := slices.Clone(row)
		f[col] = v
		cases = append(cases, tc{fmt.Sprintf("%s=%q", csvHeader[col], v), strings.Join(f, ","), csvHeader[col]})
	}
	for col, name := range csvHeader {
		var bad []string
		switch name {
		case "vp", "sni", "cert", "fqdn":
			bad = []string{`a"b`, `"quoted"x`}
		case "client":
			bad = []string{"10.1.2", "10.1.2.256", "10.1.2.3.4", "10.1.2.x", "", "h0123456789a", "h0123456789AB", "x0123456789ab"}
		case "server":
			bad = []string{"184.72.9", "h0123456789ab", "-1.2.3.4"}
		case "cport", "sport":
			bad = []string{"12x", "65536", "-1", "", "99999999999999999999"}
		case "min_rtt_us":
			bad = []string{"1.5", "9223372036854776", "-9223372036854776"}
		case "notify_host":
			bad = []string{"-1", "18446744073709551616", "0x10"}
		case "notify_ns":
			bad = []string{"1;;2", "1;", ";", "1;x", "4294967296"}
		case "syn", "fin", "rst", "server_closed":
			bad = []string{"2", "", "true", "01"}
		default: // signed integers
			bad = []string{"12x", "", "+5", " 5", "1e6", "9223372036854775808", "-9223372036854775809"}
		}
		for _, v := range bad {
			corrupt(col, v)
		}
	}
	last := len(row) - 1
	cases = append(cases,
		tc{"short row", strings.Join(row[:last], ","), "server_closed"},
		tc{"short quoted row", `"q",` + strings.Join(row[1:last], ","), "server_closed"},
		tc{"long row", strings.Join(row, ",") + ",1", "server_closed"},
		tc{"long quoted row", `"q",` + strings.Join(row[1:], ",") + ",1", "server_closed"},
		tc{"unterminated quote", strings.Join(row[:19], ",") + `,"dl-client9.dropbox.com,` + strings.Join(row[20:], ","), "sni"},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rd := NewReader(bytes.NewReader(append(slices.Clone(prefix), c.row+"\n"...)))
			if _, err := rd.Read(); err != nil {
				t.Fatalf("valid multi-line row: %v", err)
			}
			rec, err := rd.Read()
			if rec != nil || err == nil {
				t.Fatalf("got record %+v, err %v; want an error", rec, err)
			}
			want := fmt.Sprintf("csv line 4, column %q", c.col)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
			if _, again := rd.Read(); again != err {
				t.Fatalf("error did not stick: then %v, now %v", err, again)
			}
		})
	}

	t.Run("header", func(t *testing.T) {
		in := strings.Replace(string(prefix), "bytes_up", "bytes_upp", 1)
		_, err := NewReader(strings.NewReader(in)).Read()
		if err == nil || !strings.Contains(err.Error(), `csv line 1, column "bytes_up"`) {
			t.Fatalf("err = %v, want a header error at line 1, column bytes_up", err)
		}
	})
}

// loopReader serves a header once, then the same rows forever.
type loopReader struct {
	head, rows []byte
	off        int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if len(l.head) > 0 {
		n := copy(p, l.head)
		l.head = l.head[n:]
		return n, nil
	}
	n := copy(p, l.rows[l.off:])
	l.off = (l.off + n) % len(l.rows)
	return n, nil
}

// TestCSVReadAllocations pins the decoder's steady-state allocation
// budget: the record itself, plus the namespace slice on notify rows.
// Strings come from the intern table once it is warm.
func TestCSVReadAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := make([]*FlowRecord, 64)
	for i := range recs {
		recs[i] = randRecord(rng, i)
	}
	data := writeCSV(t, recs, true)
	rd := NewReader(&loopReader{head: data[:len(csvHeaderLine)], rows: data[len(csvHeaderLine):]})
	for range recs { // warm-up: header, intern table, read buffer
		if _, err := rd.Read(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := rd.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("CSV Read allocates %.2f/rec, want <= 2", allocs)
	}
}
