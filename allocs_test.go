package insidedropbox

import (
	"context"
	"io"
	"runtime"
	"testing"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// allocsSeed pins the population of every allocation scenario.
const allocsSeed = 2012

// allocsRow is one scenario of the allocation gate.
type allocsRow struct {
	name string
	// ceiling is the most heap allocations per record the scenario may
	// make.
	ceiling float64
	// procs, when > 0, pins GOMAXPROCS for the measured region, so the
	// campaign pair compares one core against an eight-way fan-out.
	procs int
	// setup builds inputs that are not part of the measured path.
	setup func(t *testing.T)
	// run is the measured workload; it returns the records (for
	// backend/saturation, the simulation events) it processed.
	run func(t *testing.T) int64
}

// TestAllocsPerRecordCeilings is the record pipeline's allocation gate.
// Allocation counts do not depend on timing, so unlike throughput the
// gate is stable on shared machines. Each scenario runs a small pinned
// population (home1 at scale 0.02, campus1 at 0.1 for what-if, two
// repetitions) and divides the process-wide malloc delta, taken after a
// GC with set-up excluded, by the records processed.
//
// Each ceiling is 2x the scenario's allocs_per_record in
// BENCH_pr10-quick.json, the last report of the retired schema-1 harness
// (see commit 70ea238 for the file). A change that really alters a
// path's allocations updates that path's ceiling in the same diff.
func TestAllocsPerRecordCeilings(t *testing.T) {
	ctx := context.Background()
	const scale, reps = 0.02, 2
	eight := fleet.Config{Shards: 8}

	var ds *workload.Dataset
	dataset := func(*testing.T) {
		if ds == nil {
			ds = workload.Generate(workload.Home1(scale), allocsSeed)
		}
	}
	serialize := func(newWriter func(io.Writer) traces.RecordWriter) func(*testing.T) int64 {
		return func(t *testing.T) int64 {
			var n int64
			for range reps {
				w := newWriter(io.Discard)
				for _, r := range ds.Records {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
					n++
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			return n
		}
	}
	export := func(newWriter func(io.Writer) traces.RecordWriter) func(*testing.T) int64 {
		return func(t *testing.T) int64 {
			w := newWriter(io.Discard)
			var n int64
			for r, err := range fleet.Records(ctx, workload.Home1(scale), allocsSeed, eight) {
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	runCampaign := func(jobs int) func(*testing.T) int64 {
		return func(t *testing.T) int64 {
			var n int64
			for range reps {
				res, err := campaign.Run(ctx, campaign.Config{
					Spec: campaign.Spec{VP: "home1", Scale: scale, Seed: allocsSeed, Shards: 8, Format: "binary"},
					Dir:  t.TempDir(),
					Jobs: jobs,
				})
				if err != nil {
					t.Fatal(err)
				}
				n += int64(res.Records)
			}
			return n
		}
	}

	var arrivals []backend.Request
	var compiled *scenario.Compiled

	rows := []allocsRow{
		{name: "generate/home1-1shard", ceiling: 2.8574639121790995, run: func(t *testing.T) int64 {
			var n int64
			for range reps {
				workload.GenerateShard(workload.Home1(scale), allocsSeed, 0, 1, func(*traces.FlowRecord) { n++ })
			}
			return n
		}},
		{name: "fleet/home1-8shard", ceiling: 0.1106844259931961, run: func(t *testing.T) int64 {
			var n int64
			for range reps {
				_, stats, err := fleet.Summarize(ctx, workload.Home1(scale), allocsSeed, eight)
				if err != nil {
					t.Fatal(err)
				}
				n += int64(stats.Records)
			}
			return n
		}},
		{name: "whatif/campus1-2profiles", ceiling: 1.1464759607099777, run: func(t *testing.T) int64 {
			profiles, err := capability.Parse("dropbox-1.2.52,dropbox-1.4.0")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := experiments.WhatIfConfig{
				Seed:     allocsSeed,
				VP:       workload.Campus1(0.1),
				Fleet:    fleet.Config{Shards: 4},
				Profiles: profiles,
			}.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for _, run := range rep.Runs {
				n += int64(run.Stats.Records)
			}
			return n
		}},
		{name: "serialize/csv", ceiling: 0.0014694442043391824, setup: dataset,
			run: serialize(func(w io.Writer) traces.RecordWriter {
				cw := traces.NewWriter(w)
				cw.Anonymize = true
				return cw
			})},
		{name: "serialize/binary", ceiling: 0.09274786066211427, setup: dataset,
			run: serialize(newAnonBinaryWriter)},
		{name: "serialize/binary-parallel", ceiling: 0.27582332094390183, setup: dataset,
			run: serialize(newAnonParallelBinaryWriter)},
		{name: "serialize/flate", ceiling: 0.29172789350851414, setup: dataset,
			run: serialize(func(w io.Writer) traces.RecordWriter {
				fw := traces.NewFlateWriter(w, runtime.GOMAXPROCS(0))
				fw.Anonymize = true
				return fw
			})},
		{name: "export/home1-8shard-binary", ceiling: 2.1664533241077093,
			run: export(newAnonBinaryWriter)},
		{name: "export/home1-8shard-binary-parallel", ceiling: 2.19205443118261,
			run: export(newAnonParallelBinaryWriter)},
		{name: "backend/saturation", ceiling: 4.002522551431525,
			setup: func(t *testing.T) {
				var err error
				if arrivals, _, err = backend.CollectArrivals(ctx, workload.Home1(scale), allocsSeed, eight); err != nil {
					t.Fatal(err)
				}
			},
			run: func(t *testing.T) int64 {
				cfg, err := backend.PresetConfig(backend.PresetProvisioned, arrivals)
				if err != nil {
					t.Fatal(err)
				}
				knee, ok := backend.SaturationPoint(cfg, arrivals)
				if !ok {
					t.Fatal("provisioned preset has no bounded class")
				}
				// Below and above the knee: short- and deep-queue event loops.
				var events int64
				for range reps {
					for _, f := range []float64{0.5, 2} {
						rep, err := backend.Simulate(ctx, cfg, backend.ScaleLoad(arrivals, f*knee))
						if err != nil {
							t.Fatal(err)
						}
						events += rep.Events
					}
				}
				return events
			}},
		{name: "scenario/cohort-mix", ceiling: 0.15636688914883368,
			setup: func(t *testing.T) {
				var err error
				compiled, err = scenario.Compile(&scenario.Spec{
					Schema: scenario.Schema,
					Name:   "allocs-cohort-mix",
					Base:   scenario.BaseSpec{VP: "home1", Scale: scale, Shards: 8},
					Cohorts: []scenario.CohortSpec{
						{Name: "office", Preset: "office-worker", Weight: 0.5},
						{Name: "mobile", Preset: "mobile-intermittent", Weight: 0.3},
						{Name: "bots", Preset: "ci-bot", Weight: 0.2},
					},
				}, allocsSeed)
				if err != nil {
					t.Fatal(err)
				}
			},
			run: func(t *testing.T) int64 {
				var n int64
				for range reps {
					res, err := scenario.CollectStream(ctx, compiled, 0)
					if err != nil {
						t.Fatal(err)
					}
					n += int64(res.Stats.Records)
				}
				return n
			}},
		{name: "campaign/home1-8shard-1core", ceiling: 2.13523611831863, procs: 1, run: runCampaign(1)},
		{name: "campaign/home1-8shard-multicore", ceiling: 2.1305656460819926, procs: 8, run: runCampaign(8)},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.setup != nil {
				row.setup(t)
			}
			if row.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.procs))
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			records := row.run(t)
			runtime.ReadMemStats(&m1)
			if records == 0 {
				t.Fatal("scenario processed no records")
			}
			got := float64(m1.Mallocs-m0.Mallocs) / float64(records)
			t.Logf("%.4f allocs/record, %.2fx of the recorded baseline", got, 2*got/row.ceiling)
			if got > row.ceiling {
				t.Errorf("%.4f allocs/record exceeds the ceiling %.4f", got, row.ceiling)
			}
		})
	}
}

func newAnonBinaryWriter(w io.Writer) traces.RecordWriter {
	bw := traces.NewBinaryWriter(w)
	bw.Anonymize = true
	return bw
}

func newAnonParallelBinaryWriter(w io.Writer) traces.RecordWriter {
	pw := traces.NewParallelBinaryWriter(w, runtime.GOMAXPROCS(0))
	pw.Anonymize = true
	return pw
}
