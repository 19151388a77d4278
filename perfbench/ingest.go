package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adsketch"
)

// ingest-live: one writer inserts seeded new edges into an Ingestor
// publishing v3 files via mmap into a catalog (adsserver -ingest
// -ingest-dir -mmap), freezing every 256 edges, while one reader runs
// closed-loop queries on the live dataset.  A run covers ingestBases
// base graphs drawn from the seed, one after the other, so one base's
// shape does not set a run's figures.

const (
	ingestBases  = 4
	ingestBatch  = 64
	freezeEvery  = 256
	liveDataset  = "live"
	ingestQueued = 1 << 12 // reader requests generated per base
)

// ingestBase is one base graph with its new-edge stream and reader pool.
type ingestBase struct {
	seed   uint64 // graph and sketch seed
	g      *adsketch.Graph
	edges  []adsketch.Edge
	reader clientPool
}

// prepareIngest draws the bases; together they take edgesPerSec new
// edges per measured second, each base a multiple of the freeze interval.
func prepareIngest(e *env, dur time.Duration) []*ingestBase {
	per := int(dur.Seconds()*float64(e.sc.edgesPerSec)) / ingestBases
	per = max(freezeEvery, per/freezeEvery*freezeEvery)
	r := newRand(e.seed, streamIngestBases)
	var bases []*ingestBase
	for i := 0; i < ingestBases; i++ {
		seed := r.Uint64()
		g := baGraph(seed, e.sc.ingestNodes, e.sc.m)
		reqs := pointRequests(newRand(seed, streamIngestReader), g.NumNodes(), ingestQueued)
		for i := range reqs {
			reqs[i].Dataset = liveDataset
		}
		bases = append(bases, &ingestBase{
			seed:   seed,
			g:      g,
			edges:  newEdges(newRand(seed, streamIngestEdges), g, per),
			reader: clientPool{reqs: reqs},
		})
	}
	e.logf("inputs: %d BA bases n=%d m=%d k=%d; %d new edges each in batches of %d, freeze every %d",
		ingestBases, e.sc.ingestNodes, e.sc.m, e.sc.k, per, ingestBatch, freezeEvery)
	return bases
}

// liveSystem is a started ingest tier.
type liveSystem struct {
	cat *adsketch.Catalog
	ing *adsketch.Ingestor
}

func (l *liveSystem) close() { l.cat.Close() }

// startLive builds the base, wraps it in a publishing Ingestor, publishes
// the first version and answers the first query: launch to first correct
// answer.  The answer is then checked against an Engine over the base.
func startLive(e *env, b *ingestBase, dir string) (*liveSystem, time.Duration, error) {
	t0 := time.Now()
	base, err := adsketch.Build(b.g, adsketch.WithK(e.sc.k), adsketch.WithSeed(b.seed))
	if err != nil {
		return nil, 0, err
	}
	cat, err := adsketch.NewCatalog()
	if err != nil {
		return nil, 0, err
	}
	l := &liveSystem{cat: cat}
	l.ing, err = adsketch.NewIngestor(b.g, base,
		adsketch.WithPublish(cat, liveDataset), adsketch.WithPublishDir(dir), adsketch.WithPublishMmap())
	if err == nil {
		_, err = l.ing.Freeze()
	}
	if err != nil {
		l.close()
		return nil, 0, err
	}
	first := b.reader.reqs[0]
	resp, err := cat.Do(context.Background(), first)
	took := time.Since(t0)
	if err != nil {
		l.close()
		return nil, 0, err
	}
	ref, err := adsketch.NewEngine(base)
	if err != nil {
		l.close()
		return nil, 0, err
	}
	first.Dataset = ""
	want, err := ref.Do(context.Background(), first)
	if err != nil || !bytes.Equal(encodeResponse(&resp), encodeResponse(&want)) {
		l.close()
		return nil, 0, fmt.Errorf("first live answer differs from an Engine over the base (err %v)", err)
	}
	return l, took, nil
}

// ingestRun is what writer-plus-reader passes measured, summed over bases.
type ingestRun struct {
	setups       []float64
	rss          peaks // per base: set-up through the writer's last freeze
	edges        int
	writeElapsed time.Duration
	freezes      durations // per Freeze call
	lastPath     string    // the last base's last published file
	reads        loopStats
	// Sampled at each freeze when traced.
	drainingMax       int
	cacheHits, misses int64
	// Maintainer counter deltas.
	offers, accepts, evictions int64
	frontierMax                int
}

// runLive inserts every edge of the base (freezing every freezeEvery)
// while one reader queries the live dataset until the writer is done.
func (run *ingestRun) runLive(l *liveSystem, b *ingestBase, tr *tracer) error {
	before := l.ing.Stats().Maintainer
	stop := make(chan struct{})
	var cycle atomic.Int64
	var reads *loopStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = readerLoop(l.cat, b.reader, stop, &cycle, tr)
	}()
	t0 := time.Now()
	err := run.write(l, b, &cycle, tr)
	run.writeElapsed += time.Since(t0)
	close(stop)
	wg.Wait()
	// Each base's publish cycles are windows of their own; the queries
	// after the last publish, while the writer stops, form none.
	run.reads.ops += reads.ops
	run.reads.failed += reads.failed
	run.reads.lat.merge(&reads.lat)
	run.reads.win = append(run.reads.win, reads.win[:min(len(reads.win), int(cycle.Load()))]...)
	run.edges += len(b.edges)
	st := l.ing.Stats().Maintainer
	run.offers += st.Offers - before.Offers
	run.accepts += st.Accepts - before.Accepts
	run.evictions += st.Evictions - before.Evictions
	run.frontierMax = max(run.frontierMax, st.FrontierMax)
	return err
}

// write inserts the base's edges, freezing every freezeEvery; cycle
// counts the publishes, which delimit the reader's windows.
func (run *ingestRun) write(l *liveSystem, b *ingestBase, cycle *atomic.Int64, tr *tracer) error {
	ctx := context.Background()
	for at := 0; at < len(b.edges); at += ingestBatch {
		batch := b.edges[at:min(at+ingestBatch, len(b.edges))]
		var op *opTrace
		if tr != nil {
			_, op = tr.start(ctx, "insert", "ingest.insert")
		}
		_, err := l.ing.InsertBatch(batch)
		if op != nil {
			tr.finish(op)
		}
		if err != nil {
			return err
		}
		if done := at + len(batch); done%freezeEvery != 0 && done < len(b.edges) {
			continue
		}
		if tr != nil {
			run.sampleCatalog(l.cat, true)
			_, op = tr.start(ctx, "freeze", "ingest.freeze")
		}
		t := time.Now()
		res, err := l.ing.Freeze()
		run.freezes.add(time.Since(t))
		if op != nil {
			tr.finish(op)
			run.sampleCatalog(l.cat, false)
		}
		if err != nil {
			return err
		}
		cycle.Add(1)
		run.lastPath = res.Path
	}
	return nil
}

// sampleCatalog records the live dataset's draining versions and, when
// a swap is about to retire the current version, adds that version's
// index-cache counters.
func (run *ingestRun) sampleCatalog(cat *adsketch.Catalog, retiring bool) {
	for _, ds := range cat.Stats().Datasets {
		if ds.Name != liveDataset {
			continue
		}
		run.drainingMax = max(run.drainingMax, ds.Draining)
		if retiring && ds.Cache != nil {
			run.cacheHits += ds.Cache.Hits
			run.misses += ds.Cache.Misses
		}
	}
}

// readerLoop queries until stop closes, one window per publish cycle.
func readerLoop(cat *adsketch.Catalog, p clientPool, stop <-chan struct{}, cycle *atomic.Int64, tr *tracer) *loopStats {
	st := &loopStats{}
	ctx := context.Background()
	for pos := 0; ; pos = (pos + 1) % len(p.reqs) {
		select {
		case <-stop:
			return st
		default:
		}
		qctx := ctx
		var op *opTrace
		if tr != nil {
			qctx, op = tr.start(ctx, "read", "catalog.read")
		}
		t := time.Now()
		_, err := cat.Do(qctx, p.reqs[pos])
		d := time.Since(t)
		st.lat.add(d)
		for c := int(cycle.Load()); len(st.win) <= c; {
			st.win = append(st.win, window{})
		}
		w := &st.win[len(st.win)-1]
		w.ops++
		w.lat.add(d)
		if op != nil {
			tr.finish(op)
		}
		st.ops++
		if err != nil {
			st.failed++
		}
	}
}

// checkLive compares the last published v3 file with a full Build of the
// base graph plus every inserted edge.
func checkLive(e *env, b *ingestBase, path string, o *outcome) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := adsketch.Build(graphWith(b.g, b.edges), adsketch.WithK(e.sc.k), adsketch.WithSeed(b.seed))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := adsketch.WriteSketchSetV3(&buf, want); err != nil {
		return err
	}
	if !bytes.Equal(got, buf.Bytes()) {
		o.problem("ingest-live: last frozen v3 file of base seed %d (%d bytes) differs from Build of base + %d inserted edges (%d bytes)",
			b.seed, len(got), len(b.edges), buf.Len())
	}
	return nil
}

// ingestPass sets up, runs and checks every base in turn.  Checks run
// after the base's system is closed, outside the measured time.
func ingestPass(e *env, bases []*ingestBase, tr *tracer, o *outcome, tag string) (*ingestRun, error) {
	run := &ingestRun{}
	for i, b := range bases {
		var live *liveSystem
		var writeErr error
		err := run.rss.around(func() error {
			var took time.Duration
			var err error
			live, took, err = startLive(e, b, filepath.Join(e.dir, fmt.Sprintf("%s-live%d", tag, i)))
			if err != nil {
				return err
			}
			run.setups = append(run.setups, took.Seconds())
			writeErr = run.runLive(live, b, tr)
			return nil
		})
		if err != nil {
			return nil, err
		}
		live.close()
		if writeErr != nil {
			o.problem("ingest-live: writer failed on base seed %d: %v", b.seed, writeErr)
			continue
		}
		if err := checkLive(e, b, run.lastPath, o); err != nil {
			return nil, err
		}
	}
	o.attempted += int64(run.edges) + run.reads.ops
	o.failed += run.reads.failed
	return run, nil
}

func runIngestLive(e *env, dur time.Duration) (*outcome, error) {
	bases := prepareIngest(e, dur)
	o := newOutcome()
	run, err := ingestPass(e, bases, nil, o, "run")
	if err != nil {
		return nil, err
	}
	p50, tail, q := run.reads.latency()
	setE2E(o, e, run.setups, float64(run.edges)/run.writeElapsed.Seconds(), p50, tail, q, run.reads.lat.count(), medianOf(run.rss),
		fmt.Sprintf("new edges/s, freezes included (%d edges, %d freezes)", run.edges, len(run.freezes)))
	e.logf("reader: %d queries during ingest; publish (Freeze) median %.2f ms", run.reads.ops, run.freezes.median()/1e6)
	return o, nil
}

func traceIngestLive(e *env, dur time.Duration) (*outcome, error) {
	bases := prepareIngest(e, dur/2)
	o := newOutcome()
	plain, err := ingestPass(e, bases, nil, o, "plain")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	run, err := ingestPass(e, bases, tr, o, "traced")
	if err != nil {
		return nil, err
	}

	// The codec's share of a publish, timed on the last frozen file.
	f, err := adsketch.MmapSketchFile(run.lastPath)
	if err != nil {
		return nil, err
	}
	frozen := f.Set()
	var writes, opens durations
	var size int64
	for i := 0; i < 3 && err == nil; i++ {
		t0 := time.Now()
		err = writeFile(filepath.Join(e.dir, "codec.v3"), func(w io.Writer) error {
			n, err := adsketch.WriteSketchSetV3(w, frozen)
			size = n
			return err
		})
		writes.add(time.Since(t0))
	}
	f.Close()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		g, err := adsketch.MmapSketchFile(run.lastPath)
		if err != nil {
			return nil, err
		}
		g.Close()
		opens.add(time.Since(t0))
	}

	edges := float64(run.edges)
	o.set("ingest.offers_per_edge", "count", float64(run.offers)/edges)
	o.set("ingest.accept_ratio", "ratio", float64(run.accepts)/float64(max(run.offers, 1)))
	o.set("ingest.evictions_per_edge", "count", float64(run.evictions)/edges)
	o.set("ingest.frontier_max", "count", float64(run.frontierMax))
	insertPerEdge := tr.totalMedian("ingest.insert") / ingestBatch
	freeze := tr.totalMedian("ingest.freeze")
	codec := writes.median() + opens.median()
	o.set("ingest.insert_us_per_edge", "us", insertPerEdge/1e3)
	o.set("ingest.freeze_ms", "ms", freeze/1e6)
	o.set("codec.frozen_v3_write_ms", "ms", writes.median()/1e6)
	o.set("codec.mmap_open_us", "us", opens.median()/1e3)
	o.set("catalog.draining_max", "count", float64(run.drainingMax))
	o.set("engine.index_hit_ratio", "ratio", float64(run.cacheHits)/float64(max(run.cacheHits+run.misses, 1)))
	o.set("ingest.reader_p99_us", "us", run.reads.lat.quantile(0.99)/1e3)
	e.logf("frozen v3 file %d bytes; reader %d queries", size, run.reads.ops)
	perEdge := func(r *ingestRun) float64 { return float64(r.writeElapsed) / float64(r.edges) }
	e2e := perEdge(run)
	cov := printLayerTable(e.out, "ingest-live (per inserted edge)", e2e, []layerRow{
		{"ingest.insert", insertPerEdge, "span"},
		{"ingest.freeze (self)", (freeze - codec) / freezeEvery, "span minus isolated codec"},
		{"codec v3 write + mmap", codec / freezeEvery, "isolated"},
	}, perEdge(plain))
	o.set("ingest-live.coverage_pct", "%", 100*cov)
	o.set("ingest-live.trace_overhead_ns", "ns", e2e-perEdge(plain))
	return o, e.writeSpans("ingest-live", tr)
}
