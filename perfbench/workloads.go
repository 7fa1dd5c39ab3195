package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"insidedropbox"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
	gen "insidedropbox/internal/workload"
)

// config is what every workload is built from. The program under test
// receives only what the benchmark derives from it.
type config struct {
	seed    int64
	scale   float64 // home1 population scale of the record workloads
	shards  int
	workers int // fleet workers, campaign jobs and flate workers
	quick   bool
	dir     string
}

// A workload is one input set the benchmark drives in a closed loop.
type workload interface {
	// setup builds the inputs and reference outputs. It runs several
	// times per benchmark run, and each must reproduce the previous one.
	setup(ctx context.Context) error
	// iterate is the timed region. t is nil on untraced iterations. It
	// returns the units of work done and the bytes of output written.
	iterate(ctx context.Context, i int, t *tracer) (units, outBytes int64, err error)
	// check verifies the last iteration's outputs, after the timed
	// region, and removes them.
	check() error
	// layers returns workload-specific per-layer metrics of the last
	// iteration; blocking lists the per-layer times that make up its
	// blocking path.
	layers() map[string]float64
	blocking() []string
	// unit names one unit of work.
	unit() string
}

// warmer is a workload whose input must be in the page cache when a
// timed iteration starts, as set-up left it. The host may reclaim the
// cache between iterations; re-reading the input restores it.
type warmer interface {
	warm() error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"export-csv", "campaign-flate", "analyze-csv", "paper-catalogue"}

func newWorkload(name string, cfg config) (workload, error) {
	rec := records{cfg: cfg, vp: gen.Home1(cfg.scale), fc: fleet.Config{Shards: cfg.shards, Workers: cfg.workers}}
	switch name {
	case "export-csv":
		return &exportCSV{records: rec}, nil
	case "campaign-flate":
		return &campaignFlate{records: rec}, nil
	case "analyze-csv":
		return &analyzeCSV{records: rec}, nil
	case "paper-catalogue":
		return &paperCatalogue{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

// records is the home1 population the three record workloads share.
// Its size varies from seed to seed, so their times are per record.
type records struct {
	cfg config
	vp  gen.VPConfig
	fc  fleet.Config
}

func (r *records) unit() string { return "record" }

// reference computes the live stream's digest; a repeated set-up must
// reproduce it.
func (r *records) reference(ctx context.Context, ref **streamDigest, fid fidelity) error {
	got, err := liveDigest(ctx, r.vp, r.cfg.seed, r.fc, fid)
	if err != nil {
		return err
	}
	if *ref != nil {
		if err := got.diff(*ref); err != nil {
			return fmt.Errorf("set-up is not reproducible: %w", err)
		}
	}
	*ref = got
	return nil
}

// observeShards reports each generation shard as an off-path span.
func observeShards(t *tracer) func(fleet.ShardEvent) {
	return func(ev fleet.ShardEvent) {
		now := time.Now()
		t.add(t.root(), "fleet.shard", ev.VP+"/"+strconv.Itoa(ev.Shard), now.Add(-ev.Elapsed), now, true)
	}
}

// exportCSV is the dropsim default: a straight anonymised CSV export of
// the live fleet stream to disk, made durable with fsync.
type exportCSV struct {
	records
	ref  *streamDigest
	out  outputCheck
	path string
}

func (w *exportCSV) setup(ctx context.Context) error {
	return w.reference(ctx, &w.ref, csvAnon)
}

func (w *exportCSV) iterate(ctx context.Context, i int, t *tracer) (int64, int64, error) {
	w.path = filepath.Join(w.cfg.dir, fmt.Sprintf("export-%d.csv", i))
	f, err := os.Create(w.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var dst io.Writer = f
	fc := w.fc
	if t != nil {
		dst = timedWriter{w: f, t: t}
		fc.Observer = observeShards(t)
	}
	cw := traces.NewWriter(dst)
	cw.Anonymize = true
	write := cw.Write
	if t != nil {
		write = func(r *traces.FlowRecord) error {
			fr := t.begin("traces.Writer.Write")
			err := cw.Write(r)
			t.end(fr, 0)
			return err
		}
	}
	var n int64
	var werr error
	if err := t.call("fleet.StreamRecords", func() error {
		_, err := fleet.StreamRecords(ctx, w.vp, w.cfg.seed, fc, func(r *traces.FlowRecord) bool {
			if werr = write(r); werr != nil {
				return false
			}
			n++
			return true
		})
		return errors.Join(err, werr)
	}); err != nil {
		return n, 0, err
	}
	if err := t.call("traces.Writer.Flush", cw.Flush); err != nil {
		return n, 0, err
	}
	if err := t.call("io.fsync", f.Sync); err != nil {
		return n, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return n, 0, err
	}
	return n, fi.Size(), f.Close()
}

func (w *exportCSV) check() error {
	defer os.Remove(w.path)
	_, err := w.out.verify(w.path, func(f *os.File) error {
		return compareDecoded(traces.NewReader(f), w.ref, csvAnon)
	})
	return err
}

func (w *exportCSV) layers() map[string]float64 { return nil }

func (w *exportCSV) blocking() []string {
	return []string{"fleet.wait_s", "traces.encode_s", "io.write_s", "io.fsync_s"}
}

// campaignFlate runs the same population as a checkpointed campaign
// into a binary-flate archive: per-shard part files and checkpoint
// commits, then the merge that transcodes and compresses them.
type campaignFlate struct {
	records
	ref       *streamDigest
	out       outputCheck
	dir       string
	res       *campaign.Result
	partBytes int64
}

func (w *campaignFlate) setup(ctx context.Context) error {
	return w.reference(ctx, &w.ref, exact)
}

func (w *campaignFlate) iterate(ctx context.Context, i int, t *tracer) (int64, int64, error) {
	w.dir = filepath.Join(w.cfg.dir, fmt.Sprintf("campaign-%d", i))
	w.res = nil
	cc := campaign.Config{
		Spec: campaign.Spec{VP: w.vp.Name, Scale: w.cfg.scale, Seed: w.cfg.seed, Shards: w.cfg.shards, Format: "binary-flate"},
		Dir:  w.dir,
		Jobs: w.cfg.workers,
	}
	// The last shard event ends generation; the merge event ends the
	// merge. Events fire on job goroutines.
	var mu sync.Mutex
	var lastShard, merged time.Time
	if t != nil {
		cc.Observer = func(ev campaign.Event) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch ev.Stage {
			case "shard":
				lastShard = now
			case "merge":
				merged = now
			}
		}
	}
	var fr frame
	if t != nil {
		fr = t.begin("campaign.Run")
	}
	res, err := campaign.Run(ctx, cc)
	if t != nil {
		t.end(fr, 0)
		mu.Lock()
		if !lastShard.IsZero() && !merged.IsZero() {
			t.add(fr.n, "campaign.generate", "", fr.start, lastShard, false)
			t.add(fr.n, "campaign.merge", "", lastShard, merged, false)
		}
		mu.Unlock()
	}
	if err != nil {
		return 0, 0, err
	}
	w.res = res
	return int64(res.Records), res.ExportBytes, nil
}

func (w *campaignFlate) check() error {
	defer os.RemoveAll(w.dir)
	parts, err := filepath.Glob(filepath.Join(w.dir, "parts", "*.part"))
	if err != nil {
		return err
	}
	w.partBytes = 0
	for _, p := range parts {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		w.partBytes += fi.Size()
	}
	hash, err := w.out.verify(w.res.ExportPath, func(f *os.File) error {
		return compareDecoded(traces.NewFlateReader(bufio.NewReader(f)), w.ref, exact)
	})
	if err != nil {
		return err
	}
	if hash != w.res.StreamHash {
		return fmt.Errorf("campaign reported stream hash %s, the file hashes to %s", w.res.StreamHash, hash)
	}
	return nil
}

func (w *campaignFlate) layers() map[string]float64 {
	return map[string]float64{"campaign.part_bytes": float64(w.partBytes)}
}

func (w *campaignFlate) blocking() []string {
	return []string{"campaign.generate_s", "campaign.merge_s"}
}

// knownMismatch names the Summary metrics an anonymised CSV cannot
// reproduce: the reader drops the client address, so every flow lands in
// one household.
var knownMismatch = map[string]bool{"households": true}

// analyzeCSV decodes an anonymised CSV export of the population and
// folds it into fleet.Summary, the offline half of the paper's method.
type analyzeCSV struct {
	records
	input   string
	written int64
	live    map[string]float64 // the live stream's summary
	offline map[string]float64 // the first iteration's summary
	got     map[string]float64
	read    int64
}

func (w *analyzeCSV) setup(ctx context.Context) error {
	w.input = filepath.Join(w.cfg.dir, "analyze-input.csv")
	f, err := os.Create(w.input)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := traces.NewWriter(f)
	cw.Anonymize = true
	sum := fleet.NewSummary(w.vp.Days)
	var n int64
	var werr error
	_, err = fleet.StreamRecords(ctx, w.vp, w.cfg.seed, w.fc, func(r *traces.FlowRecord) bool {
		sum.Consume(r)
		n++
		werr = cw.Write(r)
		return werr == nil
	})
	if err = errors.Join(err, werr); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	live := sum.Metrics()
	if w.live != nil && (n != w.written || !maps.Equal(live, w.live)) {
		return fmt.Errorf("set-up is not reproducible: %d records this time, %d before", n, w.written)
	}
	w.written, w.live = n, live
	return nil
}

func (w *analyzeCSV) warm() error {
	f, err := os.Open(w.input)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return err
}

func (w *analyzeCSV) iterate(ctx context.Context, i int, t *tracer) (int64, int64, error) {
	w.got, w.read = nil, 0
	f, err := os.Open(w.input)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var src io.Reader = f
	if t != nil {
		src = timedReader{r: f, t: t}
	}
	rd := traces.NewReader(src)
	sum := fleet.NewSummary(w.vp.Days)
	read, consume := rd.Read, sum.Consume
	if t != nil {
		read = func() (*traces.FlowRecord, error) {
			fr := t.begin("traces.Reader.Read")
			r, err := rd.Read()
			t.end(fr, 0)
			return r, err
		}
		consume = func(r *traces.FlowRecord) {
			fr := t.begin("fleet.Summary.Consume")
			sum.Consume(r)
			t.end(fr, 0)
		}
	}
	var n int64
	for {
		if n&0xffff == 0 && ctx.Err() != nil {
			return n, 0, ctx.Err()
		}
		r, err := read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, 0, fmt.Errorf("reading record %d: %w", n, err)
		}
		consume(r)
		n++
	}
	var m map[string]float64
	t.call("fleet.Summary.Metrics", func() error { m = sum.Metrics(); return nil })
	w.got, w.read = m, n
	return n, 0, nil
}

// mismatched lists the summary metrics the offline analysis got wrong.
func (w *analyzeCSV) mismatched() []string {
	var keys []string
	for k, v := range w.live {
		if got, ok := w.got[k]; !ok || got != v {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func (w *analyzeCSV) check() error {
	if w.read != w.written {
		return fmt.Errorf("decoded %d records, %d were written", w.read, w.written)
	}
	for _, k := range w.mismatched() {
		if !knownMismatch[k] {
			return fmt.Errorf("offline summary metric %s = %g, live stream %g", k, w.got[k], w.live[k])
		}
	}
	if w.offline == nil {
		w.offline = w.got
	} else if !maps.Equal(w.offline, w.got) {
		return errors.New("offline summary differs from the run's first iteration")
	}
	return nil
}

func (w *analyzeCSV) layers() map[string]float64 {
	return map[string]float64{"analyze.metrics_mismatched": float64(len(w.mismatched()))}
}

func (w *analyzeCSV) blocking() []string {
	return []string{"io.read_s", "traces.decode_s", "fleet.aggregate_s"}
}

// paperCatalogue renders the paper's default catalogue (Tables 1-5,
// Figures 1-21) plus the backend lab under the provisioned preset:
// flow-level generation, the packet-level labs and the backend event
// loop.
type paperCatalogue struct {
	cfg     config
	flowRef map[string]uint64 // flow-level results, from set-up
	first   map[string]uint64 // every result of the run's first iteration
	got     map[string]uint64
	done    int
	errs    []error
}

func (w *paperCatalogue) unit() string { return "catalogue render" }

func (w *paperCatalogue) spec() insidedropbox.Spec {
	return insidedropbox.Spec{
		Seed:    w.cfg.seed,
		Backend: "provisioned",
		Quick:   w.cfg.quick,
		Fleet:   insidedropbox.FleetConfig{Workers: w.cfg.workers},
	}
}

// setup renders the flow-level experiments alone; every full iteration
// must reproduce them.
func (w *paperCatalogue) setup(ctx context.Context) error {
	spec := w.spec()
	spec.SkipPacket = true
	res, err := insidedropbox.Run(ctx, spec)
	if err != nil {
		return err
	}
	ref := resultDigests(res)
	if w.flowRef != nil && !maps.Equal(ref, w.flowRef) {
		return errors.New("set-up is not reproducible: flow-level results differ between set-ups")
	}
	w.flowRef = ref
	return nil
}

// spanName maps an experiment to the layer its time is charged to.
func spanName(id string) string {
	switch e, _ := insidedropbox.ExperimentByID(id); {
	case e.Needs.Packet:
		return "experiments.packet"
	case strings.HasPrefix(id, "backend/"):
		return "backend.sim"
	default:
		return "experiments.flow"
	}
}

func (w *paperCatalogue) iterate(ctx context.Context, i int, t *tracer) (int64, int64, error) {
	w.got, w.done, w.errs = nil, 0, nil
	var runNode *node
	progress := func(p insidedropbox.Progress) {
		now := time.Now()
		switch {
		case p.ShardEvent():
			if t != nil {
				t.add(t.root(), "fleet.shard", p.ID+"/"+p.VP+"/"+strconv.Itoa(p.Shard), now.Add(-p.Elapsed), now, true)
			}
		case p.Done:
			w.done++
			if p.Err != nil {
				w.errs = append(w.errs, fmt.Errorf("experiment %s: %w", p.ID, p.Err))
			}
			if t != nil {
				t.add(runNode, spanName(p.ID), p.ID, now.Add(-p.Elapsed), now, false)
			}
		}
	}
	var fr frame
	if t != nil {
		fr = t.begin("insidedropbox.Run")
		runNode = fr.n
	}
	res, err := insidedropbox.Run(ctx, w.spec(), insidedropbox.WithProgress(progress))
	if t != nil {
		t.end(fr, 0)
	}
	if err != nil {
		return 0, 0, err
	}
	w.got = resultDigests(res)
	if w.done != len(res) {
		w.errs = append(w.errs, fmt.Errorf("%d experiments reported completion, %d results returned", w.done, len(res)))
	}
	return 1, 0, nil
}

func (w *paperCatalogue) check() error {
	if err := errors.Join(w.errs...); err != nil {
		return err
	}
	if len(w.got) == 0 {
		return errors.New("the catalogue rendered no results")
	}
	for id, d := range w.flowRef {
		if got, ok := w.got[id]; !ok || got != d {
			return fmt.Errorf("result %s differs from the flow-level reference rendered in set-up", id)
		}
	}
	if w.first == nil {
		w.first = w.got
	} else if !maps.Equal(w.first, w.got) {
		return errors.New("rendered results differ from the run's first iteration")
	}
	return nil
}

func (w *paperCatalogue) layers() map[string]float64 { return nil }

func (w *paperCatalogue) blocking() []string {
	return []string{"experiments.packet_s", "experiments.flow_s", "backend.sim_s"}
}
