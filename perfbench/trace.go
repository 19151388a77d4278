package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adsketch"
	"adsketch/internal/distbuild"
)

// Tracing.  Spans are recorded only here, around the benchmark's own
// calls into each layer's public functions; nothing inside the program
// is instrumented.  One operation (a client query, an insert batch, a
// build) owns an opTrace; a span names its layer, its parent span in
// the same operation, and its start and end.  A layer's self time is
// its span's duration minus the union of its children's intervals.

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index in the op's spans; -1 = root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type opTrace struct {
	ID    int64  `json:"op"`
	Kind  string `json:"kind"`
	mu    sync.Mutex
	Spans []span `json:"spans"`
}

var epoch = time.Now()

func (o *opTrace) begin(name string, parent int) int {
	now := int64(time.Since(epoch))
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Spans = append(o.Spans, span{Name: name, Parent: parent, Start: now})
	return len(o.Spans) - 1
}

func (o *opTrace) end(i int) {
	now := int64(time.Since(epoch))
	o.mu.Lock()
	o.Spans[i].End = now
	o.mu.Unlock()
}

type spanKey struct{}

type spanRef struct {
	op     *opTrace
	parent int
}

// withSpan returns ctx carrying the span that calls below it nest under.
func withSpan(ctx context.Context, op *opTrace, i int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, i})
}

// child opens a span under ctx's span; with no op in ctx it records
// nothing and returns a no-op closer.
func child(ctx context.Context, name string) (context.Context, func()) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, func() {}
	}
	i := ref.op.begin(name, ref.parent)
	return withSpan(ctx, ref.op, i), func() { ref.op.end(i) }
}

// tracer aggregates finished operations into per-layer self times and
// keeps the first few for the span file.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	self  map[string]*hist // per op: summed self time of the layer
	total map[string]*hist // per span: the layer's whole duration
	kept  []*opTrace
}

const keptOps = 2000

func newTracer() *tracer {
	return &tracer{self: map[string]*hist{}, total: map[string]*hist{}}
}

// start opens an operation whose root span is name.
func (t *tracer) start(ctx context.Context, kind, name string) (context.Context, *opTrace) {
	op := &opTrace{ID: t.next.Add(1), Kind: kind, Spans: make([]span, 0, 4)}
	i := op.begin(name, -1)
	return withSpan(ctx, op, i), op
}

// finish closes the op's root span and folds the op in.
func (t *tracer) finish(op *opTrace) {
	op.end(0)
	// Self time per span, then summed per layer name within the op.
	self := make([]int64, len(op.Spans))
	var kids [][2]int64
	for i, s := range op.Spans {
		kids = kids[:0]
		for _, c := range op.Spans {
			if c.Parent == i {
				kids = append(kids, [2]int64{c.Start, c.End})
			}
		}
		self[i] = (s.End - s.Start) - covered(kids)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range op.Spans {
		histOf(t.total, s.Name).add(time.Duration(s.End - s.Start))
		if slices.ContainsFunc(op.Spans[:i], func(p span) bool { return p.Name == s.Name }) {
			continue // summed at the layer's first span
		}
		var sum int64
		for j := i; j < len(op.Spans); j++ {
			if op.Spans[j].Name == s.Name {
				sum += self[j]
			}
		}
		histOf(t.self, s.Name).add(time.Duration(sum))
	}
	if len(t.kept) < keptOps {
		t.kept = append(t.kept, op)
	}
}

func histOf(m map[string]*hist, name string) *hist {
	h, ok := m[name]
	if !ok {
		h = &hist{}
		m[name] = h
	}
	return h
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return sum + hi - lo
}

// selfMedian is the median per-op self time of a layer, in ns.
func (t *tracer) selfMedian(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.self[name]; ok {
		return h.median()
	}
	return 0
}

// totalMedian is the median span duration of a layer, in ns.
func (t *tracer) totalMedian(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.total[name]; ok {
		return h.median()
	}
	return 0
}

// write dumps the kept operations as JSON lines.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, op := range t.kept {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans saves a traced pass's kept operations under
// .bench_build/spans, one file per workload and seed.
func (e *env) writeSpans(workload string, t *tracer) error {
	dir := filepath.Join(e.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed)), t.write)
}

// tracedBackend times every call into a ShardBackend as a span named
// layer under the caller's span.
type tracedBackend struct {
	layer string
	inner adsketch.ShardBackend
	mu    sync.Mutex
	topk  durations // durations of the topk requests answered
}

func (b *tracedBackend) Meta() adsketch.ShardMeta { return b.inner.Meta() }

func (b *tracedBackend) Do(ctx context.Context, req adsketch.Request) (adsketch.Response, error) {
	ctx, done := child(ctx, b.layer)
	t0 := time.Now()
	resp, err := b.inner.Do(ctx, req)
	d := time.Since(t0)
	done()
	if req.TopK != nil {
		b.mu.Lock()
		b.topk.add(d)
		b.mu.Unlock()
	}
	return resp, err
}

func (b *tracedBackend) DoBatch(ctx context.Context, reqs []adsketch.Request) ([]adsketch.Response, error) {
	ctx, done := child(ctx, b.layer)
	defer done()
	return b.inner.DoBatch(ctx, reqs)
}

// tracedExchanger times one distbuild worker's Init, Steps and Freeze.
type tracedExchanger struct {
	inner  distbuild.Exchanger
	init   time.Duration
	steps  map[int]time.Duration // by round
	freeze time.Duration
}

func newTracedExchanger(inner distbuild.Exchanger) *tracedExchanger {
	return &tracedExchanger{inner: inner, steps: map[int]time.Duration{}}
}

func (x *tracedExchanger) Init(ctx context.Context) ([][]distbuild.Candidate, error) {
	t0 := time.Now()
	defer func() { x.init = time.Since(t0) }()
	return x.inner.Init(ctx)
}

func (x *tracedExchanger) Step(ctx context.Context, round int, inbox []distbuild.Candidate) ([][]distbuild.Candidate, error) {
	t0 := time.Now()
	defer func() { x.steps[round] = time.Since(t0) }()
	return x.inner.Step(ctx, round, inbox)
}

func (x *tracedExchanger) Freeze(ctx context.Context) ([]byte, error) {
	t0 := time.Now()
	defer func() { x.freeze = time.Since(t0) }()
	return x.inner.Freeze(ctx)
}

// layerRow is one line of a workload's layer table.
type layerRow struct {
	layer  string
	selfNS float64
	how    string // "span", "isolated" or "derived"
}

// printLayerTable prints each layer's self time and its share of the
// traced end-to-end median, the summed coverage, and the tracing
// overhead against the untraced median of the same seed.
func printLayerTable(w io.Writer, workload string, e2eNS float64, rows []layerRow, untracedNS float64) float64 {
	fmt.Fprintf(w, "layer table %s: end-to-end median %.0f ns\n", workload, e2eNS)
	var sum float64
	for _, r := range rows {
		share := 0.0
		if e2eNS > 0 {
			share = r.selfNS / e2eNS
		}
		sum += share
		fmt.Fprintf(w, "  %-36s %14.0f ns  %6.1f%%  (%s)\n", r.layer, r.selfNS, 100*share, r.how)
	}
	fmt.Fprintf(w, "  %-36s %14s     %6.1f%%\n", "coverage", "", 100*sum)
	fmt.Fprintf(w, "  tracing overhead: traced %.0f ns - untraced %.0f ns = %.0f ns (%+.1f%%)\n",
		e2eNS, untracedNS, e2eNS-untracedNS, 100*(e2eNS-untracedNS)/max(untracedNS, 1))
	return sum
}
