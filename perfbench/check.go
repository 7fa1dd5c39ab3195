package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
	gen "insidedropbox/internal/workload"
)

// fidelity says which record fields survive a codec round trip.
type fidelity int

const (
	// exact: every field (binary and binary-flate without anonymization).
	exact fidelity = iota
	// csvAnon: anonymised CSV drops the client address and stores the
	// minimum RTT in whole microseconds.
	csvAnon
)

// hasher folds record fields into an FNV-1a digest.
type hasher struct {
	buf [8]byte
	h   uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	for _, c := range h.buf {
		h.h ^= uint64(c)
		h.h *= fnvPrime
	}
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.h ^= uint64(s[i])
		h.h *= fnvPrime
	}
}

func (h *hasher) flag(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

// recordDigest hashes every field of r that survives a round trip at the
// given fidelity, so a decoded record hashes equal to its live original
// whatever the byte format in between.
func recordDigest(r *traces.FlowRecord, fid fidelity) uint64 {
	h := hasher{h: fnvOffset}
	h.str(r.VP)
	client, rtt := uint64(r.Client), r.MinRTT
	if fid == csvAnon {
		client, rtt = 0, time.Duration(r.MinRTT.Microseconds())*time.Microsecond
	}
	h.u64(client)
	h.u64(uint64(r.Server))
	h.u64(uint64(r.ClientPort)<<16 | uint64(r.ServerPort))
	for _, d := range []time.Duration{r.FirstPacket, r.LastPacket, r.LastPayloadUp, r.LastPayloadDown, rtt} {
		h.u64(uint64(d))
	}
	for _, v := range []int64{r.BytesUp, r.BytesDown, int64(r.PktsUp), int64(r.PktsDown),
		int64(r.PSHUp), int64(r.PSHDown), int64(r.RetransUp), int64(r.RetransDown), int64(r.RTTSamples)} {
		h.u64(uint64(v))
	}
	h.str(r.SNI)
	h.str(r.CertName)
	h.str(r.FQDN)
	h.u64(r.NotifyHost)
	h.u64(uint64(len(r.NotifyNamespaces)))
	for _, ns := range r.NotifyNamespaces {
		h.u64(uint64(ns))
	}
	h.flag(r.SawSYN)
	h.flag(r.SawFIN)
	h.flag(r.SawRST)
	h.flag(r.ServerClosed)
	return h.h
}

// digestBlock is how many record digests one block digest chains.
const digestBlock = 1024

// streamDigest summarizes a record stream in bounded memory, so that two
// streams can be compared record for record: one FNV-1a chain of record
// digests per block of digestBlock records.
type streamDigest struct {
	n      int64
	blocks []uint64
	cur    hasher
}

func (d *streamDigest) add(r *traces.FlowRecord, fid fidelity) {
	if d.n%digestBlock == 0 {
		d.cur = hasher{h: fnvOffset}
	}
	d.cur.u64(recordDigest(r, fid))
	d.n++
	if d.n%digestBlock == 0 {
		d.blocks = append(d.blocks, d.cur.h)
	}
}

// sums returns every block digest, the trailing partial block included.
func (d *streamDigest) sums() []uint64 {
	if d.n%digestBlock == 0 {
		return d.blocks
	}
	return append(d.blocks[:len(d.blocks):len(d.blocks)], d.cur.h)
}

// diff reports where d departs from want.
func (d *streamDigest) diff(want *streamDigest) error {
	if d.n != want.n {
		return fmt.Errorf("%d records, the live stream has %d", d.n, want.n)
	}
	got, ref := d.sums(), want.sums()
	for i := range ref {
		if got[i] != ref[i] {
			lo := int64(i) * digestBlock
			return fmt.Errorf("records %d to %d differ from the live stream", lo, min(lo+digestBlock, d.n)-1)
		}
	}
	return nil
}

// liveDigest streams a population through fleet.StreamRecords and digests
// it — the reference every decoded export is compared with.
func liveDigest(ctx context.Context, vp gen.VPConfig, seed int64, fc fleet.Config, fid fidelity) (*streamDigest, error) {
	d := new(streamDigest)
	_, err := fleet.StreamRecords(ctx, vp, seed, fc, func(r *traces.FlowRecord) bool {
		d.add(r, fid)
		return true
	})
	return d, err
}

// recordReader is the decode side of every trace codec.
type recordReader interface {
	Read() (*traces.FlowRecord, error)
}

// compareDecoded decodes every record of rd and compares the stream, in
// order, with the reference.
func compareDecoded(rd recordReader, ref *streamDigest, fid fidelity) error {
	got := new(streamDigest)
	for {
		r, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("decoding record %d: %w", got.n, err)
		}
		got.add(r, fid)
	}
	if err := got.diff(ref); err != nil {
		return fmt.Errorf("decoded output: %w", err)
	}
	return nil
}

// fileHash returns the FNV-1a 64 hash of a file, formatted as the
// campaign runner formats stream hashes, and its size.
func fileHash(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%016x", h.Sum64()), n, nil
}

// outputCheck verifies an export file: the first one of a run is decoded
// and compared record by record with the live reference; each later one
// must be byte-identical to it, which implies the same decoded records.
type outputCheck struct {
	hash string
	size int64
}

func (c *outputCheck) verify(path string, decode func(*os.File) error) (hash string, err error) {
	hash, size, err := fileHash(path)
	if err != nil {
		return "", err
	}
	if c.hash != "" {
		if hash != c.hash || size != c.size {
			return hash, fmt.Errorf("output %s (%d bytes, hash %s) differs from the run's first output (%d bytes, hash %s)",
				path, size, hash, c.size, c.hash)
		}
		return hash, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return hash, err
	}
	defer f.Close()
	if err := decode(f); err != nil {
		return hash, fmt.Errorf("%s: %w", path, err)
	}
	c.hash, c.size = hash, size
	return hash, nil
}

// resultDigests hashes each rendered experiment result: ID, title, text
// and metrics. Provenance metadata is left out — it carries wall-clock
// durations.
func resultDigests(results []*experiments.Result) map[string]uint64 {
	out := make(map[string]uint64, len(results))
	for _, r := range results {
		h := hasher{h: fnvOffset}
		h.str(r.ID)
		h.str(r.Title)
		h.str(r.Text)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.str(k)
			h.u64(math.Float64bits(r.Metrics[k]))
		}
		out[r.ID] = h.h
	}
	return out
}
