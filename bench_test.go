package insidedropbox

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment) and reports the experiment's headline
// metric via b.ReportMetric, so `go test -bench=.` doubles as the
// reproduction run. Ablation benchmarks exercise the design choices called
// out in DESIGN.md: chunk bundling, the server initial window, data-center
// distance, delta encoding and LAN sync.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"insidedropbox/internal/chunker"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/deltasync"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/flowmodel"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

var (
	benchOnce sync.Once
	benchCamp *experiments.Campaign
)

func benchCampaign(b *testing.B) *experiments.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		benchCamp = mustBenchCampaign(b, 2012, experiments.SmallScale(), fleet.Config{Shards: 1})
	})
	return benchCamp
}

// mustBenchCampaign materializes a campaign under a background context.
func mustBenchCampaign(b *testing.B, seed int64, sc experiments.ScaleConfig, fc fleet.Config) *experiments.Campaign {
	b.Helper()
	c, err := experiments.NewCampaign(context.Background(), seed, sc, fc)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// mustBenchFleet streams a fleet report under a background context.
func mustBenchFleet(b *testing.B, seed int64, sc experiments.ScaleConfig, fc fleet.Config) *experiments.FleetReport {
	b.Helper()
	rep, err := experiments.RunFleet(context.Background(), seed, sc, fc)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// runExperiment benchmarks one campaign-level experiment and reports the
// chosen metric.
func runExperiment(b *testing.B, fn func(*experiments.Campaign) *experiments.Result, metric string) {
	c := benchCampaign(b)
	b.ResetTimer()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = fn(c)
	}
	if v, ok := r.Metrics[metric]; ok {
		b.ReportMetric(v, metricUnit(metric))
	}
}

// metricUnit sanitizes a metric name into a ReportMetric-safe unit.
func metricUnit(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c == ' ' || c == '(' || c == ')':
			// drop
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if r.Text == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable2(b *testing.B) { runExperiment(b, experiments.Table2, "gb_home1") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, experiments.Table3, "devices_total") }

func BenchmarkTable4(b *testing.B) {
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = experiments.Table4(context.Background(), 77, 0.25); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Metrics["after_avg_tp_retrieve"]/r.Metrics["before_avg_tp_retrieve"],
		"retrieve_tp_gain")
}

func BenchmarkTable5(b *testing.B) { runExperiment(b, experiments.Table5, "home1_Heavy_addr") }

func BenchmarkFigure1(b *testing.B) {
	var tb *experiments.TestbedResult
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = experiments.RunTestbed(context.Background(), int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tb.Figure1.Metrics["messages"], "messages")
}

func BenchmarkFigure2(b *testing.B) { runExperiment(b, experiments.Figure2, "gdrive_first_day") }
func BenchmarkFigure3(b *testing.B) { runExperiment(b, experiments.Figure3, "ratio") }
func BenchmarkFigure4(b *testing.B) {
	runExperiment(b, experiments.Figure4, "bytes_home1_Client (storage)")
}
func BenchmarkFigure5(b *testing.B)  { runExperiment(b, experiments.Figure5, "avg_servers_home1") }
func BenchmarkFigure6(b *testing.B)  { runExperiment(b, experiments.Figure6, "storage_median_campus1") }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, experiments.Figure7, "store_le100k_home1") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, experiments.Figure8, "store_le10_home1") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, experiments.Figure11, "dl_ul_ratio_home1") }
func BenchmarkFigure12(b *testing.B) { runExperiment(b, experiments.Figure12, "frac1_home1") }
func BenchmarkFigure13(b *testing.B) { runExperiment(b, experiments.Figure13, "frac_ge5_campus1") }
func BenchmarkFigure14(b *testing.B) { runExperiment(b, experiments.Figure14, "avg_frac_home1") }
func BenchmarkFigure15(b *testing.B) {
	runExperiment(b, experiments.Figure15, "startup_peak_hour_home1")
}
func BenchmarkFigure16(b *testing.B) { runExperiment(b, experiments.Figure16, "sub_minute_home1") }
func BenchmarkFigure17(b *testing.B) { runExperiment(b, experiments.Figure17, "up_le10k_home1") }
func BenchmarkFigure18(b *testing.B) { runExperiment(b, experiments.Figure18, "gt10M_home1") }
func BenchmarkFigure20(b *testing.B) { runExperiment(b, experiments.Figure20, "retrieve_flows") }
func BenchmarkFigure21(b *testing.B) { runExperiment(b, experiments.Figure21, "store_median_home1") }

func BenchmarkFigure9And10(b *testing.B) {
	var fig9 *experiments.Result
	for i := 0; i < b.N; i++ {
		store := experiments.QuickPacketLab(false)
		retr := experiments.QuickPacketLab(true)
		store.Seed = int64(i) + 1
		retr.Seed = int64(i) + 1001
		var err error
		fig9, _, err = experiments.RunPacketLabs(context.Background(), store, retr)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig9.Metrics["avg_tp_store"], "avg_store_bps")
	b.ReportMetric(fig9.Metrics["avg_tp_retrieve"], "avg_retrieve_bps")
}

func BenchmarkFigure19(b *testing.B) {
	var tb *experiments.TestbedResult
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = experiments.RunTestbed(context.Background(), int64(i)+50)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tb.Figure19.Metrics["captured_packets"], "packets")
}

// ---------- ablations ----------

// BenchmarkAblationBundling sweeps the per-chunk acknowledgment penalty:
// the same 2 MB payload as 1..64 chunks, v1.2.52 versus v1.4.0.
func BenchmarkAblationBundling(b *testing.B) {
	rng := simrand.New(1, "ablate")
	rtt := 90 * time.Millisecond
	var last float64
	for i := 0; i < b.N; i++ {
		for _, chunks := range []int{1, 4, 16, 64} {
			wires := make([]int, chunks)
			for j := range wires {
				wires[j] = 2 << 20 / chunks
			}
			for _, v := range []dropbox.Version{dropbox.V1252, dropbox.V140} {
				p := flowmodel.DefaultParams(rtt)
				p.Version = v
				rec := flowmodel.Synthesize(rng, p, flowmodel.StorageFlowSpec{
					Dir: classify.DirStore, ChunkWires: wires,
				})
				last = classify.TransferDuration(rec, classify.DirStore).Seconds()
			}
		}
	}
	b.ReportMetric(last, "last_dur_s")
}

// BenchmarkAblationIW sweeps the server initial window: the handshake RTT
// penalty the paper saw fixed after 1.4.0.
func BenchmarkAblationIW(b *testing.B) {
	rng := simrand.New(2, "ablate")
	var dur2, dur3 float64
	for i := 0; i < b.N; i++ {
		for _, iw := range []int{2, 3, 10} {
			p := flowmodel.DefaultParams(90 * time.Millisecond)
			p.IW = iw
			rec := flowmodel.Synthesize(rng, p, flowmodel.StorageFlowSpec{
				Dir: classify.DirStore, ChunkWires: []int{50 << 10},
			})
			d := classify.TransferDuration(rec, classify.DirStore).Seconds()
			switch iw {
			case 2:
				dur2 = d
			case 3:
				dur3 = d
			}
		}
	}
	b.ReportMetric(dur2-dur3, "iw2_extra_s")
}

// BenchmarkAblationRTT sweeps the client/data-center distance: the paper's
// "bring storage servers closer" recommendation.
func BenchmarkAblationRTT(b *testing.B) {
	rng := simrand.New(3, "ablate")
	var near, far float64
	for i := 0; i < b.N; i++ {
		for _, rtt := range []time.Duration{10 * time.Millisecond, 90 * time.Millisecond} {
			p := flowmodel.DefaultParams(rtt)
			wires := make([]int, 20)
			for j := range wires {
				wires[j] = 100 << 10
			}
			rec := flowmodel.Synthesize(rng, p, flowmodel.StorageFlowSpec{
				Dir: classify.DirStore, ChunkWires: wires,
			})
			tp := classify.Throughput(rec, classify.DirStore)
			if rtt == 10*time.Millisecond {
				near = tp
			} else {
				far = tp
			}
		}
	}
	b.ReportMetric(near/far, "near_far_speedup")
}

// BenchmarkAblationDelta measures delta encoding's traffic reduction on an
// edited 1 MB file (Sec. 2.1's librsync mechanism).
func BenchmarkAblationDelta(b *testing.B) {
	base := chunker.SyntheticFile{Seed: 5, Size: 1 << 20}.Generate()
	target := append([]byte(nil), base...)
	for i := 0; i < 20; i++ {
		target[i*50_000] ^= 0xAA
	}
	sig := deltasync.NewSignature(base, 0)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	var saved float64
	for i := 0; i < b.N; i++ {
		d := deltasync.GenerateDelta(sig, target)
		saved = 1 - float64(d.WireSize())/float64(len(target))
	}
	b.ReportMetric(100*saved, "saved_%")
}

// BenchmarkCampaignGeneration measures the flow-level fast path end to end.
func BenchmarkCampaignGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := mustBenchCampaign(b, int64(i), experiments.ScaleConfig{
			Campus1: 0.25, Campus2: 0.05, Home1: 0.015, Home2: 0.015,
		}, fleet.Config{Shards: 1})
		total := 0
		for _, ds := range c.Datasets {
			total += len(ds.Records)
		}
		if total == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// ---------- fleet engine: sequential versus sharded ----------

// BenchmarkFleetVsSequential pits the legacy single-threaded generator
// against the sharded engine on one vantage point at growing populations:
// materializing (dataset) and streaming-aggregation (summary) paths.
func BenchmarkFleetVsSequential(b *testing.B) {
	for _, scale := range []float64{0.05, 0.2} {
		cfg := workload.Home1(scale)
		name := fmt.Sprintf("home1/scale=%.2f", scale)
		b.Run(name+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := workload.Generate(cfg, int64(i))
				if len(ds.Records) == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
		shards := 2 * runtime.GOMAXPROCS(0)
		b.Run(name+"/sharded-dataset", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := fleet.Dataset(context.Background(), cfg, int64(i), fleet.Config{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				if len(ds.Records) == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
		b.Run(name+"/sharded-stream", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum, _, err := fleet.Summarize(context.Background(), cfg, int64(i), fleet.Config{Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				if sum.Flows == 0 {
					b.Fatal("empty summary")
				}
			}
		})
	}
}

// BenchmarkFleetCampaign runs the whole four-VP campaign through each path.
func BenchmarkFleetCampaign(b *testing.B) {
	sc := experiments.ScaleConfig{Campus1: 0.25, Campus2: 0.05, Home1: 0.015, Home2: 0.015}
	shards := 2 * runtime.GOMAXPROCS(0)
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := mustBenchCampaign(b, int64(i), sc, fleet.Config{Shards: shards})
			if len(c.Datasets) != 4 {
				b.Fatal("short campaign")
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		var flows float64
		for i := 0; i < b.N; i++ {
			rep := mustBenchFleet(b, int64(i), sc, fleet.Config{Shards: shards})
			flows = 0
			for _, vp := range rep.VPs {
				flows += float64(vp.Summary.Flows)
			}
			if flows == 0 {
				b.Fatal("empty report")
			}
		}
		b.ReportMetric(flows, "flows")
	})
	// 10x the default population, streaming only: the configuration that
	// does not fit the materializing path's memory envelope.
	b.Run("streaming-10x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := mustBenchFleet(b, int64(i), sc,
				fleet.Config{Shards: shards, DevicesScale: 10})
			if rep.VPs[0].Summary.Flows == 0 {
				b.Fatal("empty report")
			}
		}
	})
}

// ---------- record pipeline: serialization and pooled generation ----------

// BenchmarkTraceWriteCSV measures the compatibility serializer on a
// pre-generated dataset.
func BenchmarkTraceWriteCSV(b *testing.B) {
	ds := workload.Generate(workload.Home1(0.02), 42)
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		w := traces.NewWriter(io.Discard)
		w.Anonymize = true
		for _, r := range ds.Records {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		n += int64(len(ds.Records))
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTraceWriteBinary measures the binary columnar serializer on the
// same dataset — the allocation-free fast path.
func BenchmarkTraceWriteBinary(b *testing.B) {
	ds := workload.Generate(workload.Home1(0.02), 42)
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		w := traces.NewBinaryWriter(io.Discard)
		w.Anonymize = true
		for _, r := range ds.Records {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		n += int64(len(ds.Records))
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkGeneratePooled measures one pooled shard generation — the
// allocation profile the fleet aggregation path runs at (allocs/op divided
// by the record count is the allocs-per-record figure
// TestAllocsPerRecordCeilings gates).
func BenchmarkGeneratePooled(b *testing.B) {
	cfg := workload.Home1(0.05)
	b.ReportAllocs()
	var records int64
	for i := 0; i < b.N; i++ {
		pool := new(fleet.RecordPool)
		stats := workload.GenerateShardSink(cfg, 42, 0, 1, workload.ShardSink{
			Emit:  func(r *traces.FlowRecord) { pool.Put(r) },
			Alloc: pool.Get,
			Free:  pool.Put,
		})
		records += int64(stats.Records)
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFleetSummarizePooled measures the full 8-shard streaming
// aggregation — the fleet/home1-8shard allocation scenario as a Go
// benchmark.
func BenchmarkFleetSummarizePooled(b *testing.B) {
	cfg := workload.Home1(0.05)
	b.ReportAllocs()
	var records int64
	for i := 0; i < b.N; i++ {
		_, stats, err := fleet.Summarize(context.Background(), cfg, 42, fleet.Config{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		records += int64(stats.Records)
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
