// Package telemetry is the repo's zero-dependency instrumentation layer:
// named atomic counters, gauges and timing histograms that the hot
// subsystems (fleet, workload, traces, the experiment runner) update and
// that sinks — the periodic stderr logger, the RunManifest written next to
// results, and tests — read as consistent snapshots.
//
// The layer is built for the determinism contract of this repository:
// instrumentation observes, it never participates. No metric update can
// change a generated record, an aggregate or a serialized byte, so golden
// stream hashes are identical with telemetry read, unread, or ignored
// (pinned by TestStreamGoldenWithTelemetry). The cost model is equally
// strict: hot paths either update metrics at shard/flush granularity or
// pay a single uncontended atomic add — no allocation, no locking, no
// formatting — so enabled-but-unread telemetry stays inside the
// fleet/home1-8shard allocs-per-record CI gate (PERFORMANCE.md budgets
// the overhead).
//
// Metrics are process-global and monotonic for the process lifetime:
// NewCounter et al. register by name once and return the same metric on
// every call, so package-level `var m = telemetry.NewCounter(...)`
// declarations across packages share one registry. Snapshot returns a
// point-in-time copy; Reset (tests only) zeroes values but keeps
// registrations.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// usable, but counters are normally obtained from NewCounter so they
// appear in snapshots.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (pool depth, busy workers, peak
// RSS). The zero value is usable.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is one bucket per power-of-two nanosecond: bucket i counts
// observations with bits.Len64(ns) == i, so the histogram spans 1 ns to
// ~292 years at O(1) memory and lock-free merging of concurrent Observe
// calls.
const histBuckets = 64

// Hist is a concurrent log2-spaced duration histogram: per-shard wall
// times, per-experiment durations. All methods are safe for concurrent
// use; Observe is a few atomic adds.
type Hist struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration (negative durations count as zero).
func (h *Hist) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))%histBuckets].Add(1)
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Max returns the largest observation.
func (h *Hist) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sumNS.Load()) / n)
}

// Quantile returns the approximate q-quantile (q in [0,1]): the geometric
// midpoint of the bucket holding the q-th observation. Relative error is
// bounded by the power-of-two bucket width (~41%), which is plenty for
// "are shards balanced" questions; exact timings belong in the manifest's
// per-shard records.
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	var seen uint64
	for b := range h.buckets {
		c := h.buckets[b].Load()
		seen += c
		if c > 0 && seen > rank {
			if b == 0 {
				return 0
			}
			lo := int64(1) << (b - 1)
			mid := lo + lo/2 // midpoint of [2^(b-1), 2^b)
			if m := h.maxNS.Load(); mid > m {
				mid = m
			}
			return time.Duration(mid)
		}
	}
	return h.Max()
}

// ---------- the registry ----------

var (
	regMu    sync.Mutex
	counters = map[string]*Counter{}
	gauges   = map[string]*Gauge{}
	hists    = map[string]*Hist{}
	infos    = map[string]string{}
)

// NewCounter returns the registered counter of that name, creating it on
// first use. Safe to call from package init and concurrently.
func NewCounter(name string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	c := counters[name]
	if c == nil {
		c = &Counter{}
		counters[name] = c
	}
	return c
}

// NewGauge returns the registered gauge of that name, creating it on
// first use.
func NewGauge(name string) *Gauge {
	regMu.Lock()
	defer regMu.Unlock()
	g := gauges[name]
	if g == nil {
		g = &Gauge{}
		gauges[name] = g
	}
	return g
}

// NewHist returns the registered histogram of that name, creating it on
// first use.
func NewHist(name string) *Hist {
	regMu.Lock()
	defer regMu.Unlock()
	h := hists[name]
	if h == nil {
		h = &Hist{}
		hists[name] = h
	}
	return h
}

// SetInfo publishes a string annotation (a stream hash, a config digest)
// that snapshots and manifests carry verbatim.
func SetInfo(key, value string) {
	regMu.Lock()
	defer regMu.Unlock()
	infos[key] = value
}

// TimingStats summarizes one histogram inside a snapshot.
type TimingStats struct {
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanMs       float64 `json:"mean_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// Snap is a point-in-time copy of every registered metric. Map iteration
// order is undefined as usual; renderers sort keys. The optional maps
// are omitzero, not omitempty: an empty map is written as {} and reads
// back empty, so a decoded manifest re-encodes to the same value.
type Snap struct {
	Counters map[string]uint64      `json:"counters"`
	Gauges   map[string]int64       `json:"gauges,omitzero"`
	Timings  map[string]TimingStats `json:"timings,omitzero"`
	Info     map[string]string      `json:"info,omitzero"`
}

// Snapshot copies every registered metric. Values are loaded atomically
// per metric (the snapshot is not a global atomic cut, which observers of
// a live run do not need).
func Snapshot() Snap {
	regMu.Lock()
	defer regMu.Unlock()
	s := Snap{Counters: make(map[string]uint64, len(counters))}
	for name, c := range counters {
		s.Counters[name] = c.Load()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for name, g := range gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(hists) > 0 {
		s.Timings = make(map[string]TimingStats, len(hists))
		for name, h := range hists {
			s.Timings[name] = TimingStats{
				Count:        h.Count(),
				TotalSeconds: h.Sum().Seconds(),
				MeanMs:       float64(h.Mean()) / 1e6,
				P50Ms:        float64(h.Quantile(0.5)) / 1e6,
				P95Ms:        float64(h.Quantile(0.95)) / 1e6,
				MaxMs:        float64(h.Max()) / 1e6,
			}
		}
	}
	if len(infos) > 0 {
		s.Info = make(map[string]string, len(infos))
		for k, v := range infos {
			s.Info[k] = v
		}
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func CounterNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes every registered metric and clears info annotations, but
// keeps registrations (package-level metric vars stay valid). Intended
// for tests that assert absolute values.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, c := range counters {
		c.v.Store(0)
	}
	for _, g := range gauges {
		g.v.Store(0)
	}
	for _, h := range hists {
		h.count.Store(0)
		h.sumNS.Store(0)
		h.maxNS.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
	clear(infos)
}
