package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// node is one span of a traced iteration. Calls made repeatedly under the
// same parent (one per record, one per buffered file write) are merged
// into a single rollup node, so per-record tracing stays in bounded
// memory: start is the first call's start, end the last call's end, and
// busy the summed duration of every call.
type node struct {
	id, parent int
	name       string
	label      string // optional detail, such as an experiment ID
	start, end time.Time
	calls      int64
	busy       time.Duration
	bytes      int64
	offPath    bool // ran concurrently with the blocking path (worker goroutines)
	kids       []*node
}

// frame is an open call on the tracer's stack.
type frame struct {
	n     *node
	start time.Time
}

// tracer records the spans of one iteration. begin/end time calls made
// on the blocking path (the benchmark's own goroutine) and nest them by
// a call stack; add records closed spans reported by callbacks, including
// off-path ones from worker goroutines. All methods are safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	run   int
	nodes []*node
	stack []*node
}

const rootSpan = "bench.iteration"

func newTracer(run int) *tracer {
	root := &node{id: 0, parent: -1, name: rootSpan, start: time.Now()}
	return &tracer{run: run, nodes: []*node{root}, stack: []*node{root}}
}

func (t *tracer) root() *node { return t.nodes[0] }

// finish closes the root span.
func (t *tracer) finish() {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.nodes[0]
	r.end, r.calls, r.busy = now, 1, now.Sub(r.start)
}

// begin opens a call of name under the innermost open call.
func (t *tracer) begin(name string) frame {
	now := time.Now()
	t.mu.Lock()
	top := t.stack[len(t.stack)-1]
	var n *node
	for _, k := range top.kids {
		if k.name == name && k.label == "" && !k.offPath {
			n = k
			break
		}
	}
	if n == nil {
		n = t.newNode(top, name, "", now, false)
	}
	t.stack = append(t.stack, n)
	t.mu.Unlock()
	return frame{n: n, start: now}
}

// end closes the innermost open call, crediting bytes moved to it.
func (t *tracer) end(f frame, bytes int64) {
	now := time.Now()
	t.mu.Lock()
	f.n.calls++
	f.n.busy += now.Sub(f.start)
	f.n.end = now
	f.n.bytes += bytes
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// call times fn as one call of name; on a nil tracer it just runs fn.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	f := t.begin(name)
	err := fn()
	t.end(f, 0)
	return err
}

// add records one closed span under parent.
func (t *tracer) add(parent *node, name, label string, start, end time.Time, offPath bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.newNode(parent, name, label, start, offPath)
	n.end, n.calls, n.busy = end, 1, end.Sub(start)
}

func (t *tracer) newNode(parent *node, name, label string, start time.Time, offPath bool) *node {
	n := &node{id: len(t.nodes), parent: parent.id, name: name, label: label, start: start, offPath: offPath}
	t.nodes = append(t.nodes, n)
	parent.kids = append(parent.kids, n)
	return n
}

// self is a span's busy time minus the busy time of the on-path spans it
// contains. On-path children run on the same goroutine as their parent,
// inside its calls, so they never overlap one another.
func (n *node) self() time.Duration {
	s := n.busy
	for _, k := range n.kids {
		if !k.offPath {
			s -= k.busy
		}
	}
	return max(s, 0)
}

// find returns every span with the given name.
func (t *tracer) find(name string) []*node {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*node
	for _, n := range t.nodes {
		if n.name == name {
			out = append(out, n)
		}
	}
	return out
}

// spanRecord is the on-disk form of one span, written one JSON object per
// line. Times are seconds from the start of the iteration.
type spanRecord struct {
	Run     int     `json:"run"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Label   string  `json:"label,omitempty"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	Calls   int64   `json:"calls"`
	Busy    float64 `json:"busy_s"`
	Self    float64 `json:"self_s"`
	Bytes   int64   `json:"bytes,omitempty"`
	OffPath bool    `json:"off_path,omitempty"`
}

// writeSpans writes every traced iteration's spans to path.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		epoch := t.root().start
		for _, n := range t.nodes {
			if err := enc.Encode(spanRecord{
				Run: t.run, ID: n.id, Parent: n.parent, Name: n.name, Label: n.label,
				Start: n.start.Sub(epoch).Seconds(), End: n.end.Sub(epoch).Seconds(),
				Calls: n.calls, Busy: n.busy.Seconds(), Self: n.self().Seconds(),
				Bytes: n.bytes, OffPath: n.offPath,
			}); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// timedWriter and timedReader time the file I/O underneath a codec as
// io.write / io.read spans nested in whichever codec call triggered it.
type timedWriter struct {
	w io.Writer
	t *tracer
}

func (w timedWriter) Write(p []byte) (int, error) {
	f := w.t.begin("io.write")
	n, err := w.w.Write(p)
	w.t.end(f, int64(n))
	return n, err
}

type timedReader struct {
	r io.Reader
	t *tracer
}

func (r timedReader) Read(p []byte) (int, error) {
	f := r.t.begin("io.read")
	n, err := r.r.Read(p)
	r.t.end(f, int64(n))
	return n, err
}
