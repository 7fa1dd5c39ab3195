package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny runs a workload at a scale small enough for a unit test.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seconds: 1, trace: trace,
		cfg: config{seed: 3, scale: 0.05, shards: 4, quick: true, dir: t.TempDir()}}
}

// lastJSON parses the machine-readable result line.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// printedWithUnit reports whether a report line names the metric and its
// unit.
func printedWithUnit(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []int{0, 1} {
			var buf bytes.Buffer
			if err := bench(context.Background(), tiny(t, wl, trace == 1), &buf); err != nil {
				t.Fatalf("%s trace %d: %v", wl, trace, err)
			}
			out := buf.String()
			res := lastJSON(t, out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: correct=%t attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			want := endToEnd
			if trace == 1 {
				want = nil
				for _, m := range perLayer {
					want = append(want, m.metric)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics in the result, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", wl, trace, m.name, got, m.unit)
				}
				if !printedWithUnit(out, m.name, m.unit) {
					t.Errorf("%s trace %d: report does not print %s with unit %s", wl, trace, m.name, m.unit)
				}
			}
			if trace == 0 {
				if !printedWithUnit(out, "error_rate", "ratio") {
					t.Errorf("%s: report does not print error_rate", wl)
				}
				if wl != "paper-catalogue" && !printedWithUnit(out, "records_per_s", "1/s") {
					t.Errorf("%s: report does not print records_per_s", wl)
				}
			}
			if trace == 1 && wl == "analyze-csv" {
				if got := res.Metrics["analyze.metrics_mismatched"].Value; got != 1 {
					t.Errorf("analyze-csv: metrics_mismatched = %g, want 1 (households)", got)
				}
			}
		}
	}
}

// flipByte changes one byte of a file in place.
func flipByte(t *testing.T, path string, pick func([]byte) int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := pick(b)
	b[i] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// csvDigit picks the first digit of the bytes_up column of the third
// data row — a byte the decoded record carries.
func csvDigit(b []byte) int {
	line := 0
	for i := range b {
		if b[i] == '\n' {
			line++
			if line == 3 {
				field := 0
				for j := i + 1; j < len(b); j++ {
					if b[j] == ',' {
						field++
						if field == 9 {
							return j + 1
						}
					}
				}
			}
		}
	}
	panic("csv too short")
}

func middle(b []byte) int { return len(b) / 2 }

func TestFlippedByteFailsCheck(t *testing.T) {
	cases := []struct {
		workload string
		path     func(workload) string
		pick     func([]byte) int
	}{
		{"export-csv", func(w workload) string { return w.(*exportCSV).path }, csvDigit},
		{"campaign-flate", func(w workload) string { return w.(*campaignFlate).res.ExportPath }, middle},
	}
	ctx := context.Background()
	for _, c := range cases {
		// The first output of a run is decoded and compared record by
		// record; later ones are compared byte for byte with it. A flipped
		// byte must fail both.
		for _, flipAt := range []int{0, 1} {
			cfg := config{seed: 3, scale: 0.05, shards: 4, workers: 2, dir: t.TempDir()}
			w, err := newWorkload(c.workload, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(ctx); err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= flipAt; i++ {
				if _, _, err := w.iterate(ctx, i, nil); err != nil {
					t.Fatal(err)
				}
				if i == flipAt {
					flipByte(t, c.path(w), c.pick)
					if err := w.check(); err == nil {
						t.Errorf("%s: flipped byte in output %d passed the check", c.workload, i)
					}
				} else if err := w.check(); err != nil {
					t.Fatalf("%s: unmodified output %d failed the check: %v", c.workload, i, err)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(0)
	outer := tr.begin("outer")
	for range 3 {
		inner := tr.begin("inner")
		time.Sleep(time.Millisecond)
		tr.end(inner, 10)
	}
	tr.end(outer, 0)
	tr.add(tr.root(), "worker", "", outer.start, time.Now(), true)
	tr.finish()

	o, in := tr.find("outer"), tr.find("inner")
	if len(o) != 1 || len(in) != 1 {
		t.Fatalf("want one outer and one rolled-up inner span, got %d and %d", len(o), len(in))
	}
	if in[0].calls != 3 || in[0].bytes != 30 {
		t.Errorf("inner rollup: %d calls, %d bytes; want 3 and 30", in[0].calls, in[0].bytes)
	}
	if got, want := o[0].self(), o[0].busy-in[0].busy; got != want {
		t.Errorf("outer self = %v, want busy less inner = %v", got, want)
	}
	// The off-path worker span overlaps outer but is not subtracted.
	if got, want := tr.root().self(), tr.root().busy-o[0].busy; got != want {
		t.Errorf("root self = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestParseOptions(t *testing.T) {
	o, err := parseOptions([]string{"--workload", "export-csv", "--seed", "7", "--seconds", "9", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "export-csv" || o.cfg.seed != 7 || o.seconds != 9 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"extra"}} {
		if _, err := parseOptions(bad); err == nil {
			t.Errorf("parseOptions(%q) accepted", bad)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	var e2e, layers []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	var want []metric
	for _, m := range perLayer {
		want = append(want, m.metric)
	}
	if !slices.Equal(layers, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layers, want)
	}
}
