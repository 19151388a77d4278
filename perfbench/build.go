package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"adsketch"
	"adsketch/internal/distbuild"
)

// build: repeated adsketch.Build + v3 write of BA graphs loaded from
// their edge lists, then distbuild.Run over 2 local exchangers producing
// v3 partitions of the same graphs.  A run covers buildGraphs graphs
// drawn from the seed, so one graph's shape does not set a run's figures.

const (
	distParts   = 2
	buildGraphs = 4
)

// buildGraph is one input graph and what the run measured on it.
type buildGraph struct {
	path    string
	seed    uint64 // graph and sketch seed
	n       int
	g       *adsketch.Graph // loaded from path
	first   [32]byte        // digest of the first Build's v3 file
	want    [][]byte        // expected distbuild partitions
	entries int
	bytes   int64
	both    durations // Build + v3 write
	dist    durations // distbuild.Run
}

func prepareBuild(e *env) ([]*buildGraph, error) {
	r := newRand(e.seed, streamBuildGraphs)
	var gs []*buildGraph
	for i := 0; i < buildGraphs; i++ {
		seed := r.Uint64()
		g := baGraph(seed, e.sc.buildNodes, e.sc.m)
		bg := &buildGraph{path: filepath.Join(e.dir, fmt.Sprintf("build-graph%d.txt", i)), seed: seed, n: g.NumNodes()}
		if err := writeFile(bg.path, func(w io.Writer) error { return adsketch.WriteEdgeList(w, g) }); err != nil {
			return nil, err
		}
		gs = append(gs, bg)
	}
	e.logf("inputs: %d BA graphs n=%d m=%d k=%d, distbuild P=%d", buildGraphs, e.sc.buildNodes, e.sc.m, e.sc.k, distParts)
	return gs, nil
}

// loadGraphs reads every edge list: the build workload's set-up.  It
// returns the time of the complete load.
func loadGraphs(gs []*buildGraph) (time.Duration, error) {
	t0 := time.Now()
	for _, bg := range gs {
		f, err := os.Open(bg.path)
		if err != nil {
			return 0, err
		}
		bg.g, err = adsketch.ReadEdgeList(f, false)
		f.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// buildOnce runs Build and writes the v3 file, checking its bytes
// against the graph's first Build; it returns the set and both times.
func (bg *buildGraph) buildOnce(e *env, o *outcome) (adsketch.SketchSet, time.Duration, time.Duration, error) {
	path := filepath.Join(e.dir, "build.v3")
	t0 := time.Now()
	set, err := adsketch.Build(bg.g, adsketch.WithK(e.sc.k), adsketch.WithSeed(bg.seed))
	if err != nil {
		return nil, 0, 0, err
	}
	tb := time.Since(t0)
	t1 := time.Now()
	if err := writeFile(path, func(w io.Writer) error {
		n, err := adsketch.WriteSketchSetV3(w, set)
		bg.bytes = n
		return err
	}); err != nil {
		return nil, 0, 0, err
	}
	tw := time.Since(t1)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	sum := sha256.Sum256(b)
	if bg.want == nil {
		bg.first, bg.entries = sum, set.TotalEntries()
		if bg.want, err = expectedParts(set); err != nil {
			return nil, 0, 0, err
		}
	} else if sum != bg.first {
		o.problem("build: a repeated Build of graph seed %d wrote different v3 bytes", bg.seed)
	}
	return set, tb, tw, nil
}

// expectedParts is WritePartitionV3(SplitSketchSet(set)[i]) per worker.
func expectedParts(set adsketch.SketchSet) ([][]byte, error) {
	parts, err := adsketch.SplitSketchSet(set, distParts)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(parts))
	for i, p := range parts {
		var buf bytes.Buffer
		if _, err := adsketch.WritePartitionV3(&buf, p); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

func (bg *buildGraph) spec(e *env) distbuild.Spec {
	return distbuild.Spec{Path: bg.path, N: bg.n, K: e.sc.k, Seed: bg.seed, Kind: distbuild.KindUniform, Parts: distParts}
}

// checkParts compares distbuild's partitions with the split Build.
func checkParts(res *distbuild.Result, want [][]byte, o *outcome) {
	for i := range want {
		if i >= len(res.Partitions) || !bytes.Equal(res.Partitions[i], want[i]) {
			o.problem("build: distbuild partition %d differs from WritePartitionV3(SplitSketchSet(Build(g))[%d])", i, i)
		}
	}
}

// measureBuild runs rounds of Build + v3 write over every graph for half
// of dur, then rounds of distbuild.Run over every graph for the other
// half, each phase at least minBuilds rounds.  Every Build round starts
// by loading the graphs again, timed: a load takes a few milliseconds,
// so its samples are spread over the run to keep setup_s steady.  It
// returns the number of constructions, the peak RSS of each, and the
// load times.
func measureBuild(e *env, gs []*buildGraph, dur time.Duration, o *outcome) (int64, peaks, durations, error) {
	var n int64
	var rss peaks
	var loads durations
	t0 := time.Now()
	for round := 0; round < e.sc.minBuilds || time.Since(t0) < dur/2; round++ {
		d, err := loadGraphs(gs)
		if err != nil {
			return n, nil, nil, err
		}
		loads.add(d)
		for _, bg := range gs {
			err := rss.around(func() error {
				_, tb, tw, err := bg.buildOnce(e, o)
				bg.both.add(tb + tw)
				return err
			})
			if err != nil {
				return n, nil, nil, err
			}
			n++
		}
	}
	t1 := time.Now()
	for round := 0; round < e.sc.minBuilds || time.Since(t1) < dur/2; round++ {
		for _, bg := range gs {
			err := rss.around(func() error {
				exs, err := distbuild.NewLocalExchangers(bg.spec(e))
				if err != nil {
					return err
				}
				t := time.Now()
				res, err := distbuild.Run(context.Background(), exs)
				if err != nil {
					return err
				}
				bg.dist.add(time.Since(t))
				checkParts(res, bg.want, o)
				return nil
			})
			if err != nil {
				return n, nil, nil, err
			}
			n++
		}
	}
	return n, rss, loads, nil
}

// buildFigures summarizes a measured pass: the mean over graphs of the
// median Build + v3 write and of distbuild.Run, the construction rate
// (sketch entries per second over one of each per graph), and every
// Build sample pooled for the tail.
func buildFigures(gs []*buildGraph) (build, dist, rate float64, pooled durations) {
	var entries, secs float64
	for _, bg := range gs {
		b, d := bg.both.median(), bg.dist.median()
		build += b / float64(len(gs))
		dist += d / float64(len(gs))
		entries += 2 * float64(bg.entries)
		secs += (b + d) / 1e9
		pooled = append(pooled, bg.both...)
	}
	return build, dist, entries / secs, pooled
}

func runBuild(e *env, dur time.Duration) (*outcome, error) {
	gs, err := prepareBuild(e)
	if err != nil {
		return nil, err
	}
	if _, err := loadGraphs(gs); err != nil { // warms the page cache
		return nil, err
	}
	o := newOutcome()
	var rss peaks
	var loads durations
	if o.attempted, rss, loads, err = measureBuild(e, gs, dur, o); err != nil {
		return nil, err
	}
	var setups []float64
	for _, d := range loads {
		setups = append(setups, time.Duration(d).Seconds())
	}
	build, dist, rate, pooled := buildFigures(gs)
	q := tailQ(len(pooled))
	setE2E(o, e, setups, rate, build, pooled.quantile(q), q, len(pooled), medianOf(rss),
		"sketch entries constructed/s (one Build + v3 write and one distbuild per graph, medians); op = one Build + v3 write, mean over graphs of the per-graph median")
	e.logf("build_s %.4f, distbuild_s %.4f (P=%d), ratio %.2f; means over %d graphs of per-graph medians (%d Builds, %d distbuild runs each)",
		build/1e9, dist/1e9, distParts, dist/build, len(gs), len(gs[0].both), len(gs[0].dist))
	return o, nil
}

func traceBuild(e *env, dur time.Duration) (*outcome, error) {
	gs, err := prepareBuild(e)
	if err != nil {
		return nil, err
	}
	if _, err := loadGraphs(gs); err != nil {
		return nil, err
	}
	o := newOutcome()
	var loads durations
	if o.attempted, _, loads, err = measureBuild(e, gs, dur/2, o); err != nil {
		return nil, err
	}
	_, plainDist, _, plainPooled := buildFigures(gs)
	plainBuild := plainPooled.median()

	// Traced pass on every graph: Build and the v3 write as sibling spans
	// of one op, then one distbuild run of the first graph through timing
	// exchangers.
	tr := newTracer()
	ctx := context.Background()
	var ops durations
	t0 := time.Now()
	for round := 0; round < e.sc.minBuilds || time.Since(t0) < dur/4; round++ {
		for _, bg := range gs {
			_, op := tr.start(ctx, "build", "construct")
			sctx := withSpan(ctx, op, 0)
			_, done := child(sctx, "build")
			set, err := adsketch.Build(bg.g, adsketch.WithK(e.sc.k), adsketch.WithSeed(bg.seed))
			done()
			if err != nil {
				return nil, err
			}
			_, done = child(sctx, "codec.v3_write")
			err = writeFile(filepath.Join(e.dir, "build.v3"), func(w io.Writer) error {
				_, err := adsketch.WriteSketchSetV3(w, set)
				return err
			})
			done()
			tr.finish(op)
			if err != nil {
				return nil, err
			}
			ops.add(time.Duration(op.Spans[0].End - op.Spans[0].Start))
			o.attempted++
		}
	}
	bg := gs[0]
	locals, err := distbuild.NewLocalExchangers(bg.spec(e))
	if err != nil {
		return nil, err
	}
	traced := make([]*tracedExchanger, len(locals))
	exs := make([]distbuild.Exchanger, len(locals))
	for i, x := range locals {
		traced[i] = newTracedExchanger(x)
		exs[i] = traced[i]
	}
	t := time.Now()
	res, err := distbuild.Run(ctx, exs)
	if err != nil {
		return nil, err
	}
	runTime := time.Since(t)
	checkParts(res, bg.want, o)
	o.attempted++

	var initMax, freezeMax, steps, wait time.Duration
	var offers, accepts int64
	for i, x := range traced {
		initMax = max(initMax, x.init)
		freezeMax = max(freezeMax, x.freeze)
		st := locals[i].(*distbuild.Local).W.Stats()
		offers += st.Offers
		accepts += st.Accepts
	}
	for round := 1; round <= res.Rounds; round++ {
		var slowest time.Duration
		for _, x := range traced {
			slowest = max(slowest, x.steps[round])
		}
		steps += slowest
		for _, x := range traced {
			wait += slowest - x.steps[round]
		}
	}
	exchange := runTime - initMax - steps - freezeMax
	buildNS, writeNS := tr.totalMedian("build"), tr.totalMedian("codec.v3_write")
	o.set("graph.load_ms", "ms", loads.median()/1e6)
	var entries, size float64
	for _, bg := range gs {
		entries += float64(bg.entries) / float64(len(gs))
		size += float64(bg.bytes) / float64(len(gs))
	}
	o.set("build.entries", "count", entries)
	o.set("build.ns_per_entry", "ns", buildNS/entries)
	o.set("codec.v3_write_ms", "ms", writeNS/1e6)
	o.set("codec.v3_bytes", "bytes", size)
	o.set("distbuild.rounds", "count", float64(res.Rounds))
	o.set("distbuild.candidates", "count", float64(res.Candidates))
	o.set("distbuild.init_s", "s", initMax.Seconds())
	o.set("distbuild.step_s", "s", steps.Seconds())
	o.set("distbuild.barrier_wait_s", "s", wait.Seconds())
	o.set("distbuild.exchange_s", "s", exchange.Seconds())
	o.set("distbuild.freeze_s", "s", freezeMax.Seconds())
	o.set("distbuild.accept_ratio", "ratio", float64(accepts)/float64(max(offers, 1)))
	e.logf("distbuild traced run %.3fs: %d rounds, %d candidates", runTime.Seconds(), res.Rounds, res.Candidates)
	e2e := ops.median()
	cov := printLayerTable(e.out, "build (Build + v3 write)", e2e, []layerRow{
		{"build", buildNS, "span"},
		{"codec.v3_write", writeNS, "span"},
	}, plainBuild)
	dist := float64(runTime)
	printLayerTable(e.out, "build (distbuild.Run, P=2)", dist, []layerRow{
		{"distbuild init (slowest)", float64(initMax), "span"},
		{"distbuild steps (slowest per round)", float64(steps), "span"},
		{"distbuild exchange/regroup", float64(exchange), "derived: Run - init - steps - freeze"},
		{"distbuild freeze (slowest)", float64(freezeMax), "span"},
	}, bg.dist.median())
	o.set("build.coverage_pct", "%", 100*cov)
	o.set("build.trace_overhead_ns", "ns", e2e-plainBuild)
	e.logf("untraced pass: Build + v3 write median %.4fs over all graphs, distbuild_s %.4f (mean over %d graphs)", plainBuild/1e9, plainDist/1e9, len(gs))
	fmt.Fprintf(e.out, "  (barrier wait summed over workers and rounds: %.3fs)\n", wait.Seconds())
	return o, e.writeSpans("build", tr)
}
