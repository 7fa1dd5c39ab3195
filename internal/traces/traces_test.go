package traces

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/wire"
)

func sampleRecord() *FlowRecord {
	return &FlowRecord{
		VP:     "campus1",
		Client: wire.MakeIP(10, 1, 2, 3), Server: wire.MakeIP(184, 72, 9, 9),
		ClientPort: 40001, ServerPort: 443,
		FirstPacket: 3 * time.Second, LastPacket: 9 * time.Second,
		LastPayloadUp: 8 * time.Second, LastPayloadDown: 7 * time.Second,
		BytesUp: 123456, BytesDown: 7890,
		PktsUp: 100, PktsDown: 60, PSHUp: 4, PSHDown: 7,
		RetransUp: 1, RetransDown: 2,
		MinRTT: 92 * time.Millisecond, RTTSamples: 14,
		SNI: "dl-client9.dropbox.com", CertName: "*.dropbox.com",
		FQDN:       "dl-client9.dropbox.com",
		NotifyHost: 777, NotifyNamespaces: []uint32{1, 5, 9},
		SawSYN: true, SawFIN: true, SawRST: true, ServerClosed: true,
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord()
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	// Sub-microsecond RTT precision is lost by design; normalize.
	rec.MinRTT = rec.MinRTT.Truncate(time.Microsecond)
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestAnonymization(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Anonymize = true
	if err := w.Write(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	out := buf.String()
	if strings.Contains(out, "10.1.2.3") {
		t.Fatal("client address leaked through anonymization")
	}
	if !strings.Contains(out, "184.72.9.9") {
		t.Fatal("server address should remain (as in the public traces)")
	}
	// Stable tokens: writing twice yields the same token.
	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2)
	w2.Anonymize = true
	w2.Write(sampleRecord())
	w2.Flush()
	if buf.String() != buf2.String() {
		t.Fatal("anonymization not deterministic")
	}
}

func TestDuration(t *testing.T) {
	r := sampleRecord()
	if r.Duration() != 6*time.Second {
		t.Fatalf("duration = %v", r.Duration())
	}
}

func TestManyRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 500
	for i := 0; i < n; i++ {
		rec := sampleRecord()
		rec.BytesUp = int64(i)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := NewReader(&buf)
	for i := 0; i < n; i++ {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.BytesUp != int64(i) {
			t.Fatalf("record %d bytes = %d", i, got.BytesUp)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	w := NewWriter(io.Discard)
	rec := sampleRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	w.Flush()
}

func BenchmarkRead(b *testing.B) {
	recs := make([]*FlowRecord, 1024)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].BytesUp = int64(i)
	}
	data := writeCSV(b, recs, true)
	r := NewReader(&loopReader{head: data[:len(csvHeaderLine)], rows: data[len(csvHeaderLine):]})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
