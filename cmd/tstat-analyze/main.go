// Command tstat-analyze reads a flow-record trace and prints the paper's
// core characterizations: service breakdown, store/retrieve tagging,
// flow-size and RTT distributions, and user groups — the offline analysis
// pass of the study. The trace may be in any export format: CSV (as
// produced by dropsim or SaveTraces), binary or binary-flate; the file's
// leading bytes tell them apart.
//
// Usage:
//
//	tstat-analyze FILE
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tstat-analyze FILE (csv, binary or binary-flate trace)")
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run analyses the trace at path and writes the report to out. Each
// record is folded into the report as it is read; only the quantile
// samples grow with the trace.
func run(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	r, err := traces.NewRecordReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var (
		records                     int
		provBytes                   = map[string]float64{}
		provFlows                   = map[string]int{}
		svcFlows                    = map[string]int{}
		storeSizes, retrSizes, rtts []float64
		store                       = map[wire.IP]int64{}
		retr                        = map[wire.IP]int64{}
		clients                     = map[wire.IP]bool{}
		// Notify hosts behind each address: classify.DevicesPerIP,
		// folded per record.
		devices = map[wire.IP]map[uint64]struct{}{}
	)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: parse: %w", path, err)
		}
		records++

		// Provider breakdown.
		prov := classify.ProviderOf(rec)
		provBytes[prov.String()] += float64(rec.BytesUp + rec.BytesDown)
		provFlows[prov.String()]++

		if rec.NotifyHost != 0 {
			if devices[rec.Client] == nil {
				devices[rec.Client] = map[uint64]struct{}{}
			}
			devices[rec.Client][rec.NotifyHost] = struct{}{}
		}

		// Dropbox service breakdown + storage analysis.
		if prov != classify.ProvDropbox {
			continue
		}
		svc := classify.DropboxService(rec)
		svcFlows[svc.String()]++
		if rec.NotifyHost != 0 {
			clients[rec.Client] = true
		}
		if svc.String() == "Client (storage)" {
			switch classify.TagStorage(rec) {
			case classify.DirStore:
				storeSizes = append(storeSizes, float64(rec.BytesUp))
				store[rec.Client] += classify.Payload(rec, classify.DirStore)
			case classify.DirRetrieve:
				retrSizes = append(retrSizes, float64(rec.BytesDown))
				retr[rec.Client] += classify.Payload(rec, classify.DirRetrieve)
			}
			if rec.RTTSamples >= 10 && rec.MinRTT > 0 {
				rtts = append(rtts, float64(rec.MinRTT)/float64(time.Millisecond))
			}
		}
	}

	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "%d flow records\n\n", records)
	tb := analysis.NewTable("Traffic by provider", "provider", "flows", "volume")
	for _, k := range analysis.SortedKeys(provBytes) {
		tb.AddRow(k, provFlows[k], analysis.HumanBytes(provBytes[k]))
	}
	fmt.Fprintln(w, tb.String())

	tb2 := analysis.NewTable("Dropbox flows by service", "service", "flows")
	for _, k := range analysis.SortedKeys(svcFlows) {
		tb2.AddRow(k, svcFlows[k])
	}
	fmt.Fprintln(w, tb2.String())

	fmt.Fprintln(w, analysis.QuantileSummary("store flow bytes", storeSizes))
	fmt.Fprintln(w, analysis.QuantileSummary("retrieve flow bytes", retrSizes))
	fmt.Fprintln(w, analysis.QuantileSummary("storage min RTT (ms)", rtts))
	fmt.Fprintln(w)

	// User groups (Table 5 heuristics).
	groups := map[string]int{}
	for ip := range clients {
		groups[classify.GroupOf(store[ip], retr[ip]).String()]++
	}
	tb3 := analysis.NewTable("Households by user group", "group", "count")
	for _, k := range analysis.SortedKeys(groups) {
		tb3.AddRow(k, groups[k])
	}
	fmt.Fprintln(w, tb3.String())

	// Devices per household.
	cnt := analysis.NewCounter()
	for _, hosts := range devices {
		cnt.Add(len(hosts))
	}
	if cnt.Total() > 0 {
		fmt.Fprintf(w, "households with 1 device: %.0f%%; with >1: %.0f%%\n",
			100*cnt.Fraction(1), 100*cnt.FractionAtLeast(2))
	}
	return w.Flush()
}
