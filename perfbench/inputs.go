package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"adsketch"
	"adsketch/internal/wire"
)

// scale fixes the input sizes.  Every input is a pure function of the
// workload seed and the scale.
type scale struct {
	name        string
	serveNodes  int // serve-point / serve-scatter dataset
	ingestNodes int // ingest-live base graph
	buildNodes  int // build graph
	m, k        int // BA attachment degree, sketch parameter
	edgesPerSec int // ingest-live new edges per measured second
	setups      int // set-up repetitions behind setup_s
	pool        int // requests generated per client
	minBuilds   int // Build repetitions per build window, at least
}

var scales = map[string]scale{
	"full": {name: "full", serveNodes: 20000, ingestNodes: 5000, buildNodes: 1000,
		m: 4, k: 16, edgesPerSec: 800, setups: 5, pool: 1 << 14, minBuilds: 3},
	"tiny": {name: "tiny", serveNodes: 400, ingestNodes: 300, buildNodes: 200,
		m: 4, k: 8, edgesPerSec: 256, setups: 2, pool: 256, minBuilds: 1},
}

// Stream identifiers: each input draws from its own PCG stream of the
// seed, so adding one input never changes another.
const (
	streamPointClient = 1 + iota // + client index
	_
	streamScatterClient // + client index
	_
	streamIngestEdges
	streamIngestReader
	streamBuildGraphs
	streamIngestBases
	streamLookups
	streamCheckSample // + client index; must stay last
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// baGraph is a workload's BA graph, as adstool gen -type ba -m 4 makes it.
func baGraph(seed uint64, n, m int) *adsketch.Graph {
	return adsketch.PreferentialAttachment(n, m, seed)
}

// pointRequests is the serve-point mix: closeness on 1 node, harmonic on
// 1-4 nodes, neighborhood at r in {1,2,3} on 2 nodes, nodes uniform.
func pointRequests(r *rand.Rand, n, count int) []adsketch.Request {
	reqs := make([]adsketch.Request, count)
	nodes := func(c int) []int32 {
		out := make([]int32, c)
		for i := range out {
			out[i] = int32(r.IntN(n))
		}
		return out
	}
	for i := range reqs {
		switch r.IntN(3) {
		case 0:
			reqs[i].Closeness = &adsketch.ClosenessQuery{Nodes: nodes(1)}
		case 1:
			reqs[i].Harmonic = &adsketch.HarmonicQuery{Nodes: nodes(1 + r.IntN(4))}
		default:
			reqs[i].Neighborhood = &adsketch.NeighborhoodQuery{Radius: float64(1 + r.IntN(3)), Nodes: nodes(2)}
		}
	}
	return reqs
}

// scatterRequests is the serve-scatter mix: closeness on 8 nodes (1/2),
// closeness top-10 (1/4), and jaccard at r=2 between a node of each
// half of the range, so it crosses the two shards (1/4).
func scatterRequests(r *rand.Rand, n, count int) []adsketch.Request {
	reqs := make([]adsketch.Request, count)
	half := n / 2
	for i := range reqs {
		switch r.IntN(4) {
		case 0, 1:
			nodes := make([]int32, 8)
			for j := range nodes {
				nodes[j] = int32(r.IntN(n))
			}
			reqs[i].Closeness = &adsketch.ClosenessQuery{Nodes: nodes}
		case 2:
			reqs[i].TopK = &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}
		default:
			reqs[i].Jaccard = &adsketch.JaccardQuery{
				A: int32(r.IntN(half)), RadiusA: 2,
				B: int32(half + r.IntN(n-half)), RadiusB: 2,
			}
		}
	}
	return reqs
}

// newEdges draws count edges absent from g and from each other (no self
// loops), in stream order.
func newEdges(r *rand.Rand, g *adsketch.Graph, count int) []adsketch.Edge {
	n := g.NumNodes()
	key := func(u, v int32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(uint32(v))
	}
	seen := make(map[uint64]bool, g.NumEdges()+count)
	g.ForEachArc(func(u, v int32, _ float64) { seen[key(u, v)] = true })
	out := make([]adsketch.Edge, 0, count)
	for len(out) < count {
		u, v := int32(r.IntN(n)), int32(r.IntN(n))
		if u == v || seen[key(u, v)] {
			continue
		}
		seen[key(u, v)] = true
		out = append(out, adsketch.Edge{U: u, V: v})
	}
	return out
}

// graphWith returns g plus the given undirected unit edges.
func graphWith(g *adsketch.Graph, extra []adsketch.Edge) *adsketch.Graph {
	b := adsketch.NewGraphBuilder(g.NumNodes(), g.Directed())
	g.ForEachArc(func(u, v int32, _ float64) {
		if g.Directed() || u < v {
			b.AddEdge(u, v)
		}
	})
	for _, e := range extra {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// checkSample marks a seeded 1/every sample of pool positions whose
// responses are compared against the reference.
func checkSample(seed uint64, client, count, every int) []bool {
	r := newRand(seed, streamCheckSample+uint64(client))
	out := make([]bool, count)
	for i := range out {
		out[i] = r.IntN(every) == 0
	}
	return out
}

// expectResponses answers the sampled requests on the reference backend
// (an Engine over the unsplit set) and returns their binary wire frames;
// unsampled positions stay nil.
func expectResponses(ref adsketch.ShardBackend, reqs []adsketch.Request, sample []bool) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		if !sample[i] {
			continue
		}
		resp, err := ref.Do(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("reference answer %d: %w", i, err)
		}
		out[i] = encodeResponse(&resp)
	}
	return out, nil
}

func encodeResponse(resp *adsketch.Response) []byte {
	b := wire.Get()
	defer b.Free()
	wire.EncodeResponse(b, resp)
	return bytes.Clone(b.B)
}

func encodeResponses(resps []adsketch.Response) []byte {
	b := wire.Get()
	defer b.Free()
	wire.EncodeResponses(b, resps)
	return bytes.Clone(b.B)
}

// writeFile writes one output file through fn.
func writeFile(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
