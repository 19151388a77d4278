package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"adsketch"
)

// serveData is the serving dataset shared by serve-point and
// serve-scatter: the BA graph's sketch set as one v3 file and as its
// 2-way v3 split, plus the reference engine over the unsplit set.
type serveData struct {
	n         int
	setPath   string
	partPaths []string
	ref       *adsketch.Engine
}

// prepareServe builds the serving dataset once per process.
func prepareServe(e *env) (*serveData, error) {
	if e.serve != nil {
		return e.serve, nil
	}
	t0 := time.Now()
	g := baGraph(e.seed, e.sc.serveNodes, e.sc.m)
	set, err := adsketch.Build(g, adsketch.WithK(e.sc.k), adsketch.WithSeed(e.seed))
	if err != nil {
		return nil, err
	}
	d := &serveData{n: g.NumNodes(), setPath: filepath.Join(e.dir, "serve.v3")}
	if err := writeFile(d.setPath, func(f io.Writer) error {
		_, err := adsketch.WriteSketchSetV3(f, set)
		return err
	}); err != nil {
		return nil, err
	}
	parts, err := adsketch.SplitSketchSet(set, 2)
	if err != nil {
		return nil, err
	}
	for i, p := range parts {
		path := filepath.Join(e.dir, fmt.Sprintf("serve.p%dof2.v3", i))
		if err := writeFile(path, func(f io.Writer) error {
			_, err := adsketch.WritePartitionV3(f, p)
			return err
		}); err != nil {
			return nil, err
		}
		d.partPaths = append(d.partPaths, path)
	}
	if d.ref, err = adsketch.NewEngine(set); err != nil {
		return nil, err
	}
	e.logf("inputs: BA n=%d m=%d edges=%d k=%d entries=%d (%.1fs)",
		g.NumNodes(), e.sc.m, g.NumEdges(), e.sc.k, set.TotalEntries(), time.Since(t0).Seconds())
	e.serve = d
	return d, nil
}

// clientPool is one closed-loop client's request stream and the
// seeded sample of its expected responses.
type clientPool struct {
	reqs   []adsketch.Request
	expect [][]byte // wire frame per sampled position, nil elsewhere
}

func pointPools(e *env, d *serveData) ([]clientPool, error) {
	pools := make([]clientPool, 2)
	for c := range pools {
		r := newRand(e.seed, streamPointClient+uint64(c))
		reqs := pointRequests(r, d.n, e.sc.pool)
		sample := checkSample(e.seed, c, len(reqs), 64)
		sample[0] = true // the set-up's first answer is always checked
		exp, err := expectResponses(d.ref, reqs, sample)
		if err != nil {
			return nil, err
		}
		pools[c] = clientPool{reqs: reqs, expect: exp}
	}
	return pools, nil
}

// startCatalog attaches the v3 file via mmap as the default dataset and
// answers the first request; the returned duration is launch to first
// correct answer, which includes building the index arena.
func startCatalog(path string, first adsketch.Request, want []byte) (*adsketch.Catalog, time.Duration, error) {
	t0 := time.Now()
	cat, err := adsketch.NewCatalog()
	if err != nil {
		return nil, 0, err
	}
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.MmapSource(path)); err != nil {
		cat.Close()
		return nil, 0, err
	}
	resp, err := cat.Do(context.Background(), first)
	if err != nil {
		cat.Close()
		return nil, 0, err
	}
	took := time.Since(t0)
	if !bytes.Equal(encodeResponse(&resp), want) {
		cat.Close()
		return nil, 0, fmt.Errorf("first answer differs from the reference")
	}
	return cat, took, nil
}

// windows splits a closed-loop run: throughput, p50 and tail are the
// medians over the windows, so a burst of load from outside the
// benchmark moves one window's figures rather than the run's.
const windows = 20

type window struct {
	ops int64
	lat hist
}

// loopStats is what a closed-loop measurement collects.
type loopStats struct {
	ops, failed int64
	lat         hist
	win         []window
	winDur      time.Duration
}

// merge adds o's counts, window by window.
func (s *loopStats) merge(o *loopStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.lat.merge(&o.lat)
	for i := range o.win {
		if i == len(s.win) {
			s.win = append(s.win, window{})
		}
		s.win[i].ops += o.win[i].ops
		s.win[i].lat.merge(&o.win[i].lat)
	}
}

// rate is the median over windows of queries completed per second.
func (s *loopStats) rate() float64 {
	var xs []float64
	for _, w := range s.win {
		xs = append(xs, float64(w.ops)/s.winDur.Seconds())
	}
	return medianOf(xs)
}

// latency returns the medians over windows of the window p50 and of the
// window tail, and the tail percentile: the highest with ten samples
// beyond it in a window of average size.
func (s *loopStats) latency() (p50, tail, q float64) {
	var n, used int
	for i := range s.win {
		if c := s.win[i].lat.count(); c > 0 {
			n += c
			used++
		}
	}
	q = tailQ(n / max(used, 1))
	var p50s, tails []float64
	for i := range s.win {
		if s.win[i].lat.count() > 0 {
			p50s = append(p50s, s.win[i].lat.median())
			tails = append(tails, s.win[i].lat.quantile(q))
		}
	}
	return medianOf(p50s), medianOf(tails), q
}

// closedLoop runs one client goroutine per pool for dur, each sending
// its next request only after the previous one completed.  do answers
// the request(s) at pos and returns how many queries it completed, how
// many of them failed or answered wrongly, and whether its latency is a
// per-query sample.
func closedLoop(pools []clientPool, dur time.Duration, do func(c, pos int) (n, bad int, timed bool)) *loopStats {
	var wg sync.WaitGroup
	per := make([]loopStats, len(pools))
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := range pools {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			st.win = make([]window, windows)
			size := len(pools[c].reqs)
			for pos, i := 0, 0; ; i++ {
				if i&15 == 0 && time.Now().After(deadline) {
					return
				}
				t := time.Now()
				n, bad, timed := do(c, pos)
				w := &st.win[min(int(t.Sub(t0)*windows/dur), windows-1)]
				if timed {
					d := time.Since(t)
					st.lat.add(d)
					w.lat.add(d)
				}
				st.ops += int64(n)
				w.ops += int64(n)
				st.failed += int64(bad)
				pos = (pos + n) % size
			}
		}(c)
	}
	wg.Wait()
	total := &loopStats{winDur: dur / windows}
	for c := range per {
		total.merge(&per[c])
	}
	return total
}

// checked compares one answer with its expected frame, when sampled.
func checked(want []byte, resp *adsketch.Response, err error) int {
	if err != nil || (want != nil && !bytes.Equal(encodeResponse(resp), want)) {
		return 1
	}
	return 0
}

// setE2E fills the end-to-end metrics shared by every workload; q is
// the percentile of the tail and n the latency sample count.
func setE2E(o *outcome, e *env, setups []float64, opsPerS, p50, tail, q float64, n int, rssMB float64, what string) {
	o.set("setup_s", "s", medianOf(setups))
	o.set("ops_per_s", "1/s", opsPerS)
	o.set("op_p50_us", "us", p50/1e3)
	o.set("op_tail_us", "us", tail/1e3)
	o.set("rss_mb", "MB", rssMB)
	e.logf("setup_s %.4f (median of %d set-ups)", medianOf(setups), len(setups))
	e.logf("ops_per_s %.1f %s", opsPerS, what)
	e.logf("op_p50_us %.2f, op_tail_us %.2f = p%.1f; %d latency samples", p50/1e3, tail/1e3, 100*q, n)
	e.logf("rss_mb %.1f", rssMB)
}

// freeInputs returns input-generation garbage to the OS and restarts
// the peak-RSS counter, so rss_mb measures the system under test.
func freeInputs() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeakRSS()
}

func runServePoint(e *env, dur time.Duration) (*outcome, error) {
	d, err := prepareServe(e)
	if err != nil {
		return nil, err
	}
	pools, err := pointPools(e, d)
	if err != nil {
		return nil, err
	}
	e.serve.ref = nil // only the sampled answers are needed from here
	if err := freeInputs(); err != nil {
		return nil, err
	}
	o := newOutcome()
	var setups []float64
	var cat *adsketch.Catalog
	for i := 0; i < e.sc.setups; i++ {
		if cat != nil {
			cat.Close()
			runtime.GC()
		}
		var took time.Duration
		cat, took, err = startCatalog(d.setPath, pools[0].reqs[0], pools[0].expect[0])
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer cat.Close()
	ctx := context.Background()
	st := closedLoop(pools, dur, func(c, pos int) (int, int, bool) {
		resp, err := cat.Do(ctx, pools[c].reqs[pos])
		return 1, checked(pools[c].expect[pos], &resp, err), true
	})
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = st.ops, st.failed
	p50, tail, q := st.latency()
	setE2E(o, e, setups, st.rate(), p50, tail, q, st.lat.count(), rss,
		"queries/s (Catalog.Do, 2 closed-loop clients; every figure is a median over 20 windows)")
	return o, nil
}

func traceServePoint(e *env, dur time.Duration) (*outcome, error) {
	d, err := prepareServe(e)
	if err != nil {
		return nil, err
	}
	pools, err := pointPools(e, d)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	ctx := context.Background()
	cat, _, err := startCatalog(d.setPath, pools[0].reqs[0], pools[0].expect[0])
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	plain := closedLoop(pools, dur/2, func(c, pos int) (int, int, bool) {
		resp, err := cat.Do(ctx, pools[c].reqs[pos])
		return 1, checked(pools[c].expect[pos], &resp, err), true
	})

	// The traced pass serves the same mmap'd file through an Engine
	// wrapped in a timing backend, so the catalog span nests the engine
	// span.
	f, err := adsketch.MmapSketchFile(d.setPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	eng, err := adsketch.NewEngine(f.Set())
	if err != nil {
		return nil, err
	}
	tcat, err := adsketch.NewCatalog()
	if err != nil {
		return nil, err
	}
	defer tcat.Close()
	if err := tcat.Attach(adsketch.DefaultDataset, adsketch.BackendSource(&tracedBackend{layer: "engine", inner: eng})); err != nil {
		return nil, err
	}
	if _, err := tcat.Do(ctx, pools[0].reqs[0]); err != nil { // warm the arena
		return nil, err
	}
	tr := newTracer()
	traced := closedLoop(pools, dur/2, func(c, pos int) (int, int, bool) {
		tctx, op := tr.start(ctx, "query", "catalog")
		resp, err := tcat.Do(tctx, pools[c].reqs[pos])
		tr.finish(op)
		return 1, checked(pools[c].expect[pos], &resp, err), true
	})
	o.attempted = plain.ops + traced.ops
	o.failed = plain.failed + traced.failed

	// Isolated layer timings.
	pin := batchTime(func() {
		h, err := cat.Acquire("")
		if err == nil {
			h.Release()
		}
	})
	var nodes int
	for _, req := range pools[0].reqs {
		nodes += len(requestNodes(req))
	}
	meanNodes := float64(nodes) / float64(len(pools[0].reqs))
	r := newRand(e.seed, streamLookups)
	lookup := batchTime(func() { eng.Index(int32(r.IntN(d.n))) })
	// A set builds its index arena once, on the first Index of any
	// engine over it, so every sample maps the file afresh.
	var builds durations
	for i := 0; i < 3; i++ {
		ff, err := adsketch.MmapSketchFile(d.setPath)
		if err != nil {
			return nil, err
		}
		fresh, err := adsketch.NewEngine(ff.Set())
		if err != nil {
			ff.Close()
			return nil, err
		}
		t0 := time.Now()
		_, err = fresh.Index(0)
		builds.add(time.Since(t0))
		ff.Close()
		if err != nil {
			return nil, err
		}
	}
	allocs := allocsPerOp(func(i int) {
		eng.Do(ctx, pools[0].reqs[i%len(pools[0].reqs)])
	}, 20000)

	catDo, engDo := tr.totalMedian("catalog"), tr.totalMedian("engine")
	catSelf, engSelf := tr.selfMedian("catalog"), tr.selfMedian("engine")
	indexPart := lookup * meanNodes
	o.set("catalog.do_ns", "ns", catDo)
	o.set("catalog.self_ns", "ns", catSelf)
	o.set("catalog.pin_ns", "ns", pin)
	o.set("engine.do_ns", "ns", engDo)
	o.set("engine.allocs_per_op", "count", allocs)
	o.set("index.lookup_ns", "ns", lookup)
	o.set("index.build_ms", "ms", builds.median()/1e6)
	e2e := traced.lat.median()
	e.logf("mean nodes per request %.2f", meanNodes)
	cov := printLayerTable(e.out, "serve-point", e2e, []layerRow{
		{"catalog (self)", catSelf, "span"},
		{"engine (self - index)", engSelf - indexPart, "span"},
		{"index lookups", indexPart, "isolated"},
	}, plain.lat.median())
	o.set("serve-point.coverage_pct", "%", 100*cov)
	o.set("serve-point.trace_overhead_ns", "ns", e2e-plain.lat.median())
	return o, e.writeSpans("serve-point", tr)
}

// requestNodes lists the per-node queries' nodes.
func requestNodes(req adsketch.Request) []int32 {
	switch {
	case req.Closeness != nil:
		return req.Closeness.Nodes
	case req.Harmonic != nil:
		return req.Harmonic.Nodes
	case req.Neighborhood != nil:
		return req.Neighborhood.Nodes
	}
	return nil
}

// batchTime is the median per-call time of fn over batches of calls, in
// ns — for calls too short to time one at a time.
func batchTime(fn func()) float64 {
	const batch, rounds = 1000, 50
	var d durations
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d.add(time.Since(t0) / batch)
	}
	return d.median()
}

// allocsPerOp is the heap allocation count per call of fn.
func allocsPerOp(fn func(i int), n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
