package main

// metric is one named measurement with its unit.
type metric struct{ name, unit string }

// endToEnd lists what a user of the system sees, measured with tracing
// off. These, with their bounds, are the end_to_end list of
// BENCHMARK.json. A unit of work is one flow record on the record
// workloads and one catalogue render on paper-catalogue.
var endToEnd = []metric{
	{"wall_us_per_unit", "us"},
	{"cpu_us_per_unit", "us"},
	{"setup_s", "s"},
}

// status says whether a per-layer value was measured.
type status int

const (
	measured      status = iota
	notApplicable        // the workload does not run this layer
	absent               // a counter the value needs is not in the registry
)

// layerInput is what one traced iteration offers the per-layer metrics.
type layerInput struct {
	t     *tracer
	c     counters
	extra map[string]float64 // workload-specific values
}

// spans sums f over every span with one of the names; a layer with no
// span did not run.
func (in layerInput) spans(f func(*node) float64, names ...string) (float64, status) {
	var s float64
	found := false
	for _, name := range names {
		for _, n := range in.t.find(name) {
			s += f(n)
			found = true
		}
	}
	if !found {
		return 0, notApplicable
	}
	return s, measured
}

func busy(n *node) float64  { return n.busy.Seconds() }
func self(n *node) float64  { return n.self().Seconds() }
func moved(n *node) float64 { return float64(n.bytes) }

func (in layerInput) counter(name string) (float64, status) {
	v, ok := in.c.sum(name)
	if !ok {
		return 0, absent
	}
	return v, measured
}

// ratio divides two counter sums; a zero denominator means the layer did
// not run.
func (in layerInput) ratio(num, den []string) (float64, status) {
	n, okN := in.c.sum(num...)
	d, okD := in.c.sum(den...)
	if !okN || !okD {
		return 0, absent
	}
	if d == 0 {
		return 0, notApplicable
	}
	return n / d, measured
}

func (in layerInput) fromWorkload(name string) (float64, status) {
	v, ok := in.extra[name]
	if !ok {
		return 0, notApplicable
	}
	return v, measured
}

// layerMetric is one per-layer metric and how a traced iteration yields
// it.
type layerMetric struct {
	metric
	value func(layerInput) (float64, status)
}

var sessionHits = []string{"session.campaign_hits", "session.packet_hits", "session.testbed_hits", "session.arrival_hits", "session.scenario_hits"}
var sessionAll = append(append([]string(nil), sessionHits...),
	"session.campaign_builds", "session.packet_builds", "session.testbed_builds", "session.arrival_builds", "session.scenario_builds")

// perLayer lists the per-layer metrics, in BENCHMARK.json order. The two
// bench.* entries are filled in from whole iterations, not from one
// layer, so their value funcs are nil.
var perLayer = []layerMetric{
	// fleet: time the consumer blocks on the next record (the
	// StreamRecords span less the consumer's own calls), generation time
	// summed over shards, and producer stalls on a full stream buffer.
	{metric{"fleet.wait_s", "s"}, func(in layerInput) (float64, status) { return in.spans(self, "fleet.StreamRecords") }},
	{metric{"workload.shard_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "fleet.shard") }},
	{metric{"fleet.stream_stalls", "count"}, func(in layerInput) (float64, status) { return in.counter("fleet.stream_stalls") }},
	// traces writers and the file underneath them.
	{metric{"traces.encode_s", "s"}, func(in layerInput) (float64, status) {
		return in.spans(self, "traces.Writer.Write", "traces.Writer.Flush")
	}},
	{metric{"io.write_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "io.write") }},
	{metric{"io.fsync_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "io.fsync") }},
	{metric{"io.bytes", "bytes"}, func(in layerInput) (float64, status) { return in.spans(moved, "io.write", "io.read") }},
	// campaign runner.
	{metric{"campaign.generate_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "campaign.generate") }},
	{metric{"campaign.merge_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "campaign.merge") }},
	{metric{"campaign.checkpoints_written", "count"}, func(in layerInput) (float64, status) {
		return in.counter("campaign.checkpoints_written")
	}},
	{metric{"campaign.shard_retries", "count"}, func(in layerInput) (float64, status) { return in.counter("campaign.shard_retries") }},
	{metric{"campaign.part_bytes", "bytes"}, func(in layerInput) (float64, status) { return in.fromWorkload("campaign.part_bytes") }},
	{metric{"traces.compress_ratio", "ratio"}, func(in layerInput) (float64, status) {
		return in.ratio([]string{"traces.flate_raw_bytes"}, []string{"traces.flate_bytes"})
	}},
	{metric{"fleet.pool_hit_ratio", "ratio"}, func(in layerInput) (float64, status) {
		return in.ratio([]string{"fleet.pool_hits"}, []string{"fleet.pool_hits", "fleet.pool_misses"})
	}},
	// traces readers and aggregation.
	{metric{"io.read_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "io.read") }},
	{metric{"traces.decode_s", "s"}, func(in layerInput) (float64, status) { return in.spans(self, "traces.Reader.Read") }},
	{metric{"fleet.aggregate_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "fleet.Summary.Consume") }},
	{metric{"analyze.metrics_mismatched", "count"}, func(in layerInput) (float64, status) {
		return in.fromWorkload("analyze.metrics_mismatched")
	}},
	// experiment catalogue, packet labs and the backend event loop.
	{metric{"experiments.packet_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "experiments.packet") }},
	{metric{"experiments.flow_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "experiments.flow") }},
	{metric{"backend.sim_s", "s"}, func(in layerInput) (float64, status) { return in.spans(busy, "backend.sim") }},
	{metric{"backend.events_per_s", "1/s"}, func(in layerInput) (float64, status) {
		sim, st := in.spans(busy, "backend.sim")
		if st != measured || sim == 0 {
			return 0, notApplicable
		}
		ev, st := in.counter("backend.events")
		if st != measured {
			return 0, st
		}
		return ev / sim, measured
	}},
	{metric{"session.hit_ratio", "ratio"}, func(in layerInput) (float64, status) { return in.ratio(sessionHits, sessionAll) }},
	// whole-iteration accounting.
	{metric{"bench.unattributed_s", "s"}, nil},
	{metric{"bench.trace_overhead_s", "s"}, nil},
}

// layerValue is one per-layer reading.
type layerValue struct {
	v  float64
	st status
}

// layerValues evaluates every per-layer metric of one traced iteration.
// bench.unattributed_s is the iteration's wall time less the workload's
// blocking-path layer times.
func layerValues(w workload, t *tracer, c counters, wall float64) map[string]layerValue {
	in := layerInput{t: t, c: c, extra: w.layers()}
	out := make(map[string]layerValue, len(perLayer))
	for _, m := range perLayer {
		if m.value != nil {
			v, st := m.value(in)
			out[m.name] = layerValue{v, st}
		}
	}
	rest := wall
	for _, name := range w.blocking() {
		rest -= out[name].v
	}
	out["bench.unattributed_s"] = layerValue{rest, measured}
	return out
}
