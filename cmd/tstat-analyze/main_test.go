package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// export writes a small anonymized campus1 trace in format, as dropsim
// does, and returns its path and record count.
func export(t *testing.T, dir, format string) (string, int) {
	t.Helper()
	path := filepath.Join(dir, "trace"+traces.Ext(format))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w, err := traces.NewRecordWriter(bw, format, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var werr error
	if _, err := fleet.StreamRecords(context.Background(), workload.Campus1(0.05), 7, fleet.Config{Shards: 2},
		func(r *traces.FlowRecord) bool {
			n++
			werr = w.Write(r)
			return werr == nil
		}); err != nil {
		t.Fatal(err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, n
}

// reportDigest is the FNV-1a 64 digest of the report on export's trace,
// as the analysis printed it when it still collected every record before
// walking them: folding records as they stream in must not move a byte.
const reportDigest = 0x6be78baa20166c71

// TestRunReadsEveryFormat: the same export analysed from each format
// gives the same record count, the same provider table and, since every
// reader decodes the same records, the same report, whose digest is
// pinned.
func TestRunReadsEveryFormat(t *testing.T) {
	dir := t.TempDir()
	var want string
	for _, format := range traces.Formats() {
		path, n := export(t, dir, format)
		var out bytes.Buffer
		if err := run(&out, path); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got := out.String()
		if line := fmt.Sprintf("%d flow records\n", n); n == 0 || !strings.HasPrefix(got, line) {
			t.Fatalf("%s: report does not open with %q:\n%s", format, line, got)
		}
		if !strings.Contains(got, "Traffic by provider") {
			t.Fatalf("%s: report has no provider table:\n%s", format, got)
		}
		if h := fnv.New64a(); want == "" {
			h.Write(out.Bytes())
			if h.Sum64() != reportDigest {
				t.Errorf("%s: report digest %#016x, want %#016x:\n%s", format, h.Sum64(), uint64(reportDigest), got)
			}
			want = got
		} else if got != want {
			t.Errorf("%s: report differs from the csv report:\n%s\nvs\n%s", format, got, want)
		}
	}
}

// TestRunRejectsUnknownFormat: a file in no trace format is an error
// naming the offset, not an empty report.
func TestRunRejectsUnknownFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(&bytes.Buffer{}, path)
	if err == nil || !strings.Contains(err.Error(), "offset 0") {
		t.Fatalf("err = %v, want an unrecognised-format error at offset 0", err)
	}
}
