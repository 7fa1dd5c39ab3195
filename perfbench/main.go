// Command perfbench is the repository benchmark. It drives one workload
// as a closed loop — one client in one process, iterations back to back
// — for a fixed time, checks every iteration's output, and prints each
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_us_per_unit": {"value": 1.29, "unit": "us"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 traced and untraced iterations alternate
// and the metrics are the per-layer ones, taken from spans the benchmark
// records around its own calls into each layer. README.md explains the
// workloads and what each metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload export-csv --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"insidedropbox/internal/telemetry"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// sample is one iteration's measurement.
type sample struct {
	traced   bool
	wall     float64 // seconds
	cpu      float64 // seconds
	rssMB    float64
	units    int64 // work units completed
	outBytes int64
	err      error
	layers   map[string]layerValue // traced iterations only
}

// options is one run's settings. The command line sets the workload,
// seed, duration and trace mode; the rest are the benchmark's constants,
// which tests shrink.
type options struct {
	workload string
	seconds  int
	trace    bool
	cfg      config
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

func parseOptions(args []string) (options, error) {
	o := options{cfg: config{scale: 1, shards: 16, dir: filepath.Join(".bench_build", "perfbench")}}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 15, "timed seconds per run (at least one iteration runs)")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds < 1 {
		return o, errors.New("-seconds must be positive")
	}
	o.trace = *trace == 1
	return o, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	return bench(ctx, o, stdout)
}

// bench runs one workload and prints its report.
func bench(ctx context.Context, o options, stdout io.Writer) error {
	// GOMAXPROCS and every worker count follow the CPUs this process may
	// run on.
	o.cfg.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(o.cfg.workers)
	// Checked before the name becomes a directory to empty.
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (valid: %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	// Inputs and outputs live in a directory of the workload's own,
	// emptied first in case a killed run left files behind.
	base := o.cfg.dir
	workDir := filepath.Join(base, o.workload)
	if err := os.RemoveAll(workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	o.cfg.dir = workDir
	w, err := newWorkload(o.workload, o.cfg)
	if err != nil {
		return err
	}

	var setupTimes []float64
	for range setups {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	var samples []sample
	var tracers []*tracer
	limit := float64(o.seconds)
	var elapsed float64
	// A failed iteration ends the loop: its outputs are wrong, and an
	// iteration that fails fast would otherwise spin until the timed
	// seconds add up.
	for i := 0; elapsed < limit || (o.trace && len(tracers) == 0); i++ {
		if wm, ok := w.(warmer); ok {
			if err := wm.warm(); err != nil {
				return fmt.Errorf("%s: warming the input: %w", o.workload, err)
			}
		}
		s, t := iterate(ctx, w, i, o.trace && i%2 == 1)
		samples = append(samples, s)
		if t != nil {
			tracers = append(tracers, t)
		}
		elapsed += s.wall
		if s.err != nil {
			break
		}
	}

	fmt.Fprintf(stdout, "# perfbench %s: seed %d, closed loop of 1 client for %d s, GOMAXPROCS %d, workers %d",
		o.workload, o.cfg.seed, o.seconds, runtime.GOMAXPROCS(0), o.cfg.workers)
	if o.workload == "paper-catalogue" {
		fmt.Fprintf(stdout, ", quick %t\n", o.cfg.quick)
	} else {
		fmt.Fprintf(stdout, ", home1 scale %g, %d shards\n", o.cfg.scale, o.cfg.shards)
	}
	for i, s := range samples {
		fmt.Fprintf(stdout, "# iteration %d: traced %t, wall %.4f s, cpu %.4f s, peak rss %.1f MB\n", i, s.traced, s.wall, s.cpu, s.rssMB)
		if s.err != nil {
			fmt.Fprintf(stdout, "# FAILED iteration %d: %v\n", i, s.err)
		}
	}
	var metrics map[string]jsonMetric
	if o.trace {
		metrics = reportLayers(stdout, samples)
		path := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.cfg.seed))
		if err := writeSpans(path, tracers); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans: %s\n", path)
	} else {
		metrics = reportEndToEnd(stdout, w, samples, setupTimes)
	}
	failed := 0
	for _, s := range samples {
		if s.err != nil {
			failed++
		}
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// iterate runs, measures and checks one iteration.
func iterate(ctx context.Context, w workload, i int, traced bool) (sample, *tracer) {
	resetPeakRSS()
	before := telemetry.Snapshot()
	var t *tracer
	if traced {
		t = newTracer(i)
	}
	cpu0, start := cpuTime(), time.Now()
	units, outBytes, err := w.iterate(ctx, i, t)
	wall, cpu := time.Since(start).Seconds(), (cpuTime() - cpu0).Seconds()
	rss := peakRSSMB()
	if t != nil {
		t.finish()
	}
	delta := counterDelta(before, telemetry.Snapshot())
	if err == nil {
		err = w.check()
	}
	s := sample{traced: traced, wall: wall, cpu: cpu, rssMB: rss, units: units, outBytes: outBytes, err: err}
	if t != nil {
		s.layers = layerValues(w, t, delta, wall)
	}
	return s, t
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDist(out io.Writer, name, unit string, d dist) {
	fmt.Fprintf(out, "%-28s %14.6g %-6s median of %d (q1 %.6g, q3 %.6g)\n", name, d.med, unit, d.n, d.q1, d.q3)
}

// reportEndToEnd prints the end-to-end metrics of the untraced
// iterations and returns the bounded ones for the JSON line. Record
// counts differ from seed to seed, so the bounded times are per unit of
// work; wall_s and cpu_s per iteration are printed alongside. So is
// peak_rss_mb, unbounded: on paper-catalogue it follows the size of the
// seed's materialised campaign, which varies more across seeds than any
// bound allows.
func reportEndToEnd(out io.Writer, w workload, samples []sample, setups []float64) map[string]jsonMetric {
	var wall, cpu, wallPer, cpuPer, rss, rps, bpr []float64
	failed := 0
	for _, s := range samples {
		if s.err != nil {
			failed++
		}
		units := float64(max(s.units, 1))
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		wallPer = append(wallPer, s.wall/units*1e6)
		cpuPer = append(cpuPer, s.cpu/units*1e6)
		rss = append(rss, s.rssMB)
		rps = append(rps, units/s.wall)
		bpr = append(bpr, float64(s.outBytes)/units)
	}
	dists := map[string]dist{
		"wall_us_per_unit": summarize(wallPer), "cpu_us_per_unit": summarize(cpuPer), "setup_s": summarize(setups),
	}
	metrics := make(map[string]jsonMetric, len(endToEnd))
	fmt.Fprintf(out, "# end-to-end, tracing off; one unit is one %s\n", w.unit())
	for _, m := range endToEnd {
		printDist(out, m.name, m.unit, dists[m.name])
		metrics[m.name] = jsonMetric{Value: dists[m.name].med, Unit: m.unit}
	}
	printDist(out, "wall_s", "s", summarize(wall))
	printDist(out, "cpu_s", "s", summarize(cpu))
	printDist(out, "peak_rss_mb", "MB", summarize(rss))
	if w.unit() == "record" {
		printDist(out, "records_per_s", "1/s", summarize(rps))
		printDist(out, "cpu_us_per_record", "us", summarize(cpuPer))
		if slices.Max(bpr) > 0 {
			printDist(out, "output_bytes_per_record", "bytes", summarize(bpr))
		}
	}
	fmt.Fprintf(out, "%-28s %14.6g %-6s %d failed of %d attempted\n", "error_rate", float64(failed)/float64(len(samples)), "ratio", failed, len(samples))
	return metrics
}

// reportLayers prints the per-layer metrics, medians over the traced
// iterations, and returns them for the JSON line. A metric of a layer
// the workload does not run reads 0 in the JSON and "n/a" here; one whose
// counter is missing from the registry is left out of both.
func reportLayers(out io.Writer, samples []sample) map[string]jsonMetric {
	var tracedWall, plainWall []float64
	for _, s := range samples {
		if s.traced {
			tracedWall = append(tracedWall, s.wall)
		} else {
			plainWall = append(plainWall, s.wall)
		}
	}
	overhead := summarize(tracedWall).med - summarize(plainWall).med
	fmt.Fprintf(out, "# per-layer, medians of %d traced iterations (%d untraced alongside)\n", len(tracedWall), len(plainWall))
	metrics := make(map[string]jsonMetric, len(perLayer))
	for _, m := range perLayer {
		if m.name == "bench.trace_overhead_s" {
			fmt.Fprintf(out, "%-28s %14.6g %-6s traced median %.6g - untraced median %.6g\n", m.name, overhead, m.unit,
				summarize(tracedWall).med, summarize(plainWall).med)
			metrics[m.name] = jsonMetric{Value: overhead, Unit: m.unit}
			continue
		}
		var vals []float64
		st := notApplicable
		for _, s := range samples {
			if lv, ok := s.layers[m.name]; ok {
				switch lv.st {
				case measured:
					vals = append(vals, lv.v)
					st = measured
				case absent:
					if st != measured {
						st = absent
					}
				}
			}
		}
		switch st {
		case measured:
			d := summarize(vals)
			printDist(out, m.name, m.unit, d)
			metrics[m.name] = jsonMetric{Value: d.med, Unit: m.unit}
		case notApplicable:
			fmt.Fprintf(out, "%-28s %14s %-6s layer not on this workload's path\n", m.name, "n/a", m.unit)
			metrics[m.name] = jsonMetric{Value: 0, Unit: m.unit}
		case absent:
			fmt.Fprintf(out, "%-28s %14s %-6s counter missing from the telemetry registry\n", m.name, "absent", m.unit)
		}
	}
	return metrics
}
