package workload

import (
	"bytes"
	"hash/fnv"
	"io"
	"testing"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/traces"
)

// streamHash serializes a (cfg, seed, shards) record stream as
// non-anonymized CSV — every field, full precision where CSV carries it —
// and returns the FNV-1a hash of the bytes. Multi-shard streams hash
// shards in index order (the canonical fleet order).
func streamHash(t *testing.T, cfg VPConfig, seed int64, nshards int) uint64 {
	t.Helper()
	h := fnv.New64a()
	w := traces.NewWriter(h)
	for sh := 0; sh < nshards; sh++ {
		GenerateShard(cfg, seed, sh, nshards, func(r *traces.FlowRecord) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestRecordStreamGolden pins the generated record streams bit for bit.
// These hashes were recorded before the hot-path optimization pass
// (string interning, record pooling, event-slice rewrite, chunk-size
// iteration): any optimization that changes a single byte of any record
// stream fails here. Update a hash only for a deliberate,
// documented model change — never for a performance change
// (PERFORMANCE.md: optimizations must not change golden outputs).
func TestRecordStreamGolden(t *testing.T) {
	bigChunks, ok := capability.ByName("big-chunks-16mb")
	if !ok {
		t.Fatal("big-chunks-16mb preset missing")
	}
	withCaps := func(cfg VPConfig, p capability.Profile) VPConfig {
		cfg.Caps = &p
		return cfg
	}
	cases := []struct {
		name    string
		cfg     VPConfig
		seed    int64
		nshards int
		want    uint64
	}{
		{"home1-1shard", Home1(0.02), 7, 1, 0xd01117eb3a234b9d},
		{"home1-4shard", Home1(0.02), 7, 4, 0x1887b88d5f86bad5},
		{"home2-abnormal-1shard", Home2(0.02), 9, 1, 0xa59024c1345e9efb},
		{"campus1-1shard", Campus1(0.1), 7, 1, 0x6e788bc7931c6666},
		{"campus1-bigchunks-1shard", withCaps(Campus1(0.1), bigChunks), 7, 1, 0x5ffb4eb3ba85ad2b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := streamHash(t, tc.cfg, tc.seed, tc.nshards)
			if got != tc.want {
				t.Fatalf("record stream hash = %#x, want %#x (a hot-path change altered generated records)", got, tc.want)
			}
		})
	}
}

// binaryStreamBytes serializes a (cfg, seed, shards) record stream
// through w (a factory so each call gets a fresh writer over its own
// buffer) and returns the bytes.
func binaryStreamBytes(t *testing.T, cfg VPConfig, seed int64, nshards int, w traces.RecordWriter) {
	t.Helper()
	for sh := 0; sh < nshards; sh++ {
		GenerateShard(cfg, seed, sh, nshards, func(r *traces.FlowRecord) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordStreamGoldenCodecs extends the golden contract across the
// serialization stack: the parallel binary writer must emit the same
// bytes at workers=1 and workers=8 (the determinism contract — worker
// count never changes output), both must match the sequential writer,
// and the flate archival tier must be equally worker-independent. The
// CSV golden hashes above transitively pin record content; these pin the
// binary/archival framing on real generated streams.
func TestRecordStreamGoldenCodecs(t *testing.T) {
	cfg, seed, nshards := Home1(0.02), int64(7), 4

	var seq bytes.Buffer
	sw := traces.NewBinaryWriter(&seq)
	binaryStreamBytes(t, cfg, seed, nshards, sw)

	for _, workers := range []int{1, 8} {
		var par bytes.Buffer
		pw := traces.NewParallelBinaryWriter(&par, workers)
		binaryStreamBytes(t, cfg, seed, nshards, pw)
		if !bytes.Equal(par.Bytes(), seq.Bytes()) {
			t.Fatalf("parallel binary (workers=%d) differs from sequential writer", workers)
		}
	}

	var flate1 bytes.Buffer
	fw1 := traces.NewFlateWriter(&flate1, 1)
	binaryStreamBytes(t, cfg, seed, nshards, fw1)
	var flate8 bytes.Buffer
	fw8 := traces.NewFlateWriter(&flate8, 8)
	binaryStreamBytes(t, cfg, seed, nshards, fw8)
	if !bytes.Equal(flate1.Bytes(), flate8.Bytes()) {
		t.Fatal("flate stream differs between workers=1 and workers=8")
	}

	// The archival tier re-streams to the identical record sequence: CSV
	// re-serialization of the decoded records reproduces the golden hash.
	fr := traces.NewFlateReader(bytes.NewReader(flate1.Bytes()))
	h := fnv.New64a()
	var csv bytes.Buffer
	cw := traces.NewWriter(io.MultiWriter(h, &csv))
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = 0x1887b88d5f86bad5 // home1-4shard golden hash above
	if got := h.Sum64(); got != want {
		t.Fatalf("flate round-trip CSV hash = %#x, want %#x", got, want)
	}

	// The size claims of the formats on generated traffic: binary at
	// least 3x smaller than CSV, and flate smaller again.
	if ratio := float64(csv.Len()) / float64(seq.Len()); ratio < 3 {
		t.Fatalf("binary stream only %.2fx smaller than CSV, want >= 3x", ratio)
	}
	if flate1.Len() >= seq.Len() {
		t.Fatalf("flate stream %d bytes not smaller than raw binary %d", flate1.Len(), seq.Len())
	}
}
