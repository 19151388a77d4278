package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"adsketch"
	"adsketch/internal/wire"
)

// serve-scatter: a coordinator adsserver over two -mmap worker
// adsservers on the 2-way v3 split, driven over loopback HTTP with
// binary frames by two closed-loop clients.

const (
	batchEvery = 64 // every 64th pool position sends a batch frame
	batchSize  = 8
)

// server is one adsserver child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startServer(e *env, name string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(e.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.adsserver, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting adsserver %s: %w", name, err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("adsserver at %s exited: %v", s.url, err)
		default:
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("adsserver at %s not healthy after %v", s.url, timeout)
}

// stop terminates the process and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// cluster is the three-process serving tier.
type cluster struct {
	workers []*server
	coord   *server
}

func (c *cluster) all() []*server { return append(append([]*server{}, c.workers...), c.coord) }

func (c *cluster) stop() {
	for _, s := range c.all() {
		if s != nil {
			s.stop()
		}
	}
}

// startCluster launches the workers, then the coordinator, and returns
// once the coordinator gives the first correct answer to first.
func startCluster(e *env, d *serveData, client *http.Client, first []byte, want []byte) (*cluster, time.Duration, error) {
	t0 := time.Now()
	c := &cluster{}
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	var urls []string
	for i, p := range d.partPaths {
		w, err := startServer(e, fmt.Sprintf("worker%d", i), "-sketches", p, "-mmap")
		if err != nil {
			return fail(err)
		}
		c.workers = append(c.workers, w)
		urls = append(urls, w.url)
	}
	for _, w := range c.workers {
		if err := w.waitHealthy(client, 30*time.Second); err != nil {
			return fail(err)
		}
	}
	coord, err := startServer(e, "coordinator", "-workers", strings.Join(urls, ","))
	if err != nil {
		return fail(err)
	}
	c.coord = coord
	if err := coord.waitHealthy(client, 30*time.Second); err != nil {
		return fail(err)
	}
	got, err := postFrame(client, coord.url, first, nil)
	if err != nil {
		return fail(err)
	}
	took := time.Since(t0)
	if !bytes.Equal(got, want) {
		return fail(errors.New("first answer from the coordinator differs from the reference"))
	}
	return c, took, nil
}

// postFrame sends one binary request frame and returns the response body.
func postFrame(client *http.Client, url string, frame, dst []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := wire.ReadAll(dst[:0], resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// scatterPool is one client's requests, their encoded frames, and the
// expected responses of the seeded sample (single and batch positions).
type scatterPool struct {
	clientPool
	frames      [][]byte // single-request frame per position
	batchFrames map[int][]byte
	batchExpect map[int][]byte
}

func scatterPools(e *env, d *serveData) ([]scatterPool, []byte, []byte, error) {
	size := max(e.sc.pool/4, 2*batchEvery)
	pools := make([]scatterPool, 2)
	for c := range pools {
		r := newRand(e.seed, streamScatterClient+uint64(c))
		reqs := scatterRequests(r, d.n, size)
		sample := checkSample(e.seed, 10+c, size, 32)
		exp, err := expectResponses(d.ref, reqs, sample)
		if err != nil {
			return nil, nil, nil, err
		}
		p := scatterPool{clientPool: clientPool{reqs: reqs, expect: exp},
			batchFrames: map[int][]byte{}, batchExpect: map[int][]byte{}}
		for _, req := range reqs {
			p.frames = append(p.frames, encodeRequests([]adsketch.Request{req}, false))
		}
		for pos := 0; pos+batchSize <= size; pos += batchEvery {
			batch := reqs[pos : pos+batchSize]
			p.batchFrames[pos] = encodeRequests(batch, true)
			if sample[pos] {
				resps, err := d.ref.DoBatch(context.Background(), batch)
				if err != nil {
					return nil, nil, nil, err
				}
				p.batchExpect[pos] = encodeResponses(resps)
			}
		}
		pools[c] = p
	}
	// The set-up's first query ranks every node, so both workers build
	// their index arenas before it answers.
	first := adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}}
	resp, err := d.ref.Do(context.Background(), first)
	if err != nil {
		return nil, nil, nil, err
	}
	return pools, encodeRequests([]adsketch.Request{first}, false), encodeResponse(&resp), nil
}

func encodeRequests(reqs []adsketch.Request, batch bool) []byte {
	b := wire.Get()
	defer b.Free()
	if batch {
		wire.EncodeRequests(b, reqs)
	} else {
		wire.EncodeRequest(b, &reqs[0])
	}
	return bytes.Clone(b.B)
}

func basePools(ps []scatterPool) []clientPool {
	out := make([]clientPool, len(ps))
	for i := range ps {
		out[i] = ps[i].clientPool
	}
	return out
}

// scatterStep sends the single request or batch frame at pos.
func scatterStep(client *http.Client, url string, p *scatterPool, bufs [][]byte, c, pos int) (int, int, bool) {
	if f, ok := p.batchFrames[pos]; ok {
		got, err := postFrame(client, url, f, bufs[c])
		bufs[c] = got
		if err != nil || (p.batchExpect[pos] != nil && !bytes.Equal(got, p.batchExpect[pos])) {
			return batchSize, batchSize, false
		}
		return batchSize, 0, false
	}
	got, err := postFrame(client, url, p.frames[pos], bufs[c])
	bufs[c] = got
	if err != nil || (p.expect[pos] != nil && !bytes.Equal(got, p.expect[pos])) {
		return 1, 1, true
	}
	return 1, 0, true
}

func runServeScatter(e *env, dur time.Duration) (*outcome, error) {
	d, err := prepareServe(e)
	if err != nil {
		return nil, err
	}
	pools, first, want, err := scatterPools(e, d)
	if err != nil {
		return nil, err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var setups []float64
	var cl *cluster
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	for i := 0; i < e.sc.setups; i++ {
		if cl != nil {
			cl.stop()
			cl = nil
		}
		var took time.Duration
		if cl, took, err = startCluster(e, d, client, first, want); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	bufs := make([][]byte, len(pools))
	st := closedLoop(basePools(pools), dur, func(c, pos int) (int, int, bool) {
		return scatterStep(client, cl.coord.url, &pools[c], bufs, c, pos)
	})
	var rss float64
	for _, s := range cl.all() {
		mb, err := peakRSSMB(s.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	o := newOutcome()
	o.attempted, o.failed = st.ops, st.failed
	p50, tail, q := st.latency()
	setE2E(o, e, setups, st.rate(), p50, tail, q, st.lat.count(), rss,
		"queries/s (HTTP binary frames to the coordinator, 2 closed-loop clients; batch frames count 8, their latency is not sampled; every figure is a median over 20 windows)")
	return o, nil
}

// statsz is the part of adsserver's /statsz the benchmark reads.
type statsz struct {
	Queries int64 `json:"queries"`
	Scatter []struct {
		Calls   int64 `json:"calls"`
		Errors  int64 `json:"errors"`
		Retries int64 `json:"retries"`
	} `json:"scatter"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func getStatsz(client *http.Client, url string) (statsz, error) {
	var st statsz
	resp, err := client.Get(url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func traceServeScatter(e *env, dur time.Duration) (*outcome, error) {
	d, err := prepareServe(e)
	if err != nil {
		return nil, err
	}
	pools, first, want, err := scatterPools(e, d)
	if err != nil {
		return nil, err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	cl, _, err := startCluster(e, d, client, first, want)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	bufs := make([][]byte, len(pools))
	plain := closedLoop(basePools(pools), dur/2, func(c, pos int) (int, int, bool) {
		return scatterStep(client, cl.coord.url, &pools[c], bufs, c, pos)
	})

	// Traced HTTP pass: the client times its wire encode, the HTTP round
	// trip and the wire decode of every single request.
	before, err := getStatsz(client, cl.coord.url)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ctx := context.Background()
	var reqBytes, respBytes, singles int64
	traced := closedLoop(basePools(pools), dur/2, func(c, pos int) (int, int, bool) {
		p := &pools[c]
		if _, ok := p.batchFrames[pos]; ok {
			return scatterStep(client, cl.coord.url, p, bufs, c, pos)
		}
		_, op := tr.start(ctx, "query", "client")
		sctx := withSpan(ctx, op, 0)
		_, done := child(sctx, "wire.encode")
		b := wire.Get()
		wire.EncodeRequest(b, &p.reqs[pos])
		done()
		_, done = child(sctx, "adsserver")
		got, err := postFrame(client, cl.coord.url, b.B, bufs[c])
		done()
		bufs[c] = got
		reqLen := len(b.B)
		b.Free()
		bad := 0
		if err != nil {
			bad = 1
		} else {
			_, done = child(sctx, "wire.decode")
			_, derr := wire.DecodeResponse(got)
			done()
			if derr != nil || (p.expect[pos] != nil && !bytes.Equal(got, p.expect[pos])) {
				bad = 1
			}
		}
		tr.finish(op)
		if c == 0 { // one client's sizes are a fair sample
			singles++
			reqBytes += int64(reqLen)
			respBytes += int64(len(got))
		}
		return 1, bad, true
	})
	after, err := getStatsz(client, cl.coord.url)
	if err != nil {
		return nil, err
	}
	var hits, misses int64
	for _, w := range cl.workers {
		st, err := getStatsz(client, w.url)
		if err != nil {
			return nil, err
		}
		hits += st.Cache.Hits
		misses += st.Cache.Misses
	}

	// In-process replica of the coordinator over the same partition
	// files, its shard hops wrapped in timing backends.
	var hops []*tracedBackend
	var backends []adsketch.ShardBackend
	for _, path := range d.partPaths {
		f, err := adsketch.MmapSketchFile(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		eng, err := adsketch.NewShardEngine(f.Partition())
		if err != nil {
			return nil, err
		}
		tb := &tracedBackend{layer: "hop", inner: eng}
		hops = append(hops, tb)
		backends = append(backends, tb)
	}
	coord, err := adsketch.NewCoordinator(backends)
	if err != nil {
		return nil, err
	}
	if _, err := coord.Do(ctx, adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}}); err != nil {
		return nil, err
	}
	rtr := newTracer()
	var batchDo durations
	var replicaOps, replicaBad int64
	p := &pools[0]
	deadline := time.Now().Add(dur / 4)
	for pos := 0; time.Now().Before(deadline); pos = (pos + 1) % len(p.reqs) {
		replicaOps++
		if _, ok := p.batchFrames[pos]; ok && pos+batchSize <= len(p.reqs) {
			t0 := time.Now()
			resps, err := coord.DoBatch(ctx, p.reqs[pos:pos+batchSize])
			batchDo.add(time.Since(t0))
			if err != nil || (p.batchExpect[pos] != nil && !bytes.Equal(encodeResponses(resps), p.batchExpect[pos])) {
				replicaBad++
			}
			continue
		}
		rctx, op := rtr.start(ctx, "query", "coord")
		resp, err := coord.Do(rctx, p.reqs[pos])
		rtr.finish(op)
		replicaBad += int64(checked(p.expect[pos], &resp, err))
	}
	var topk durations
	for _, h := range hops {
		topk = append(topk, h.topk...)
	}

	o := newOutcome()
	o.attempted = plain.ops + traced.ops + replicaOps
	o.failed = plain.failed + traced.failed + replicaBad
	enc, dec := tr.totalMedian("wire.encode"), tr.totalMedian("wire.decode")
	coordDo, coordSelf := rtr.totalMedian("coord"), rtr.selfMedian("coord")
	e2e := traced.lat.median()
	httpNS := e2e - (enc + coordDo + dec)
	queries := after.Queries - before.Queries
	var calls, retries, errs int64
	for i := range after.Scatter {
		calls += after.Scatter[i].Calls - before.Scatter[i].Calls
		retries += after.Scatter[i].Retries - before.Scatter[i].Retries
		errs += after.Scatter[i].Errors - before.Scatter[i].Errors
	}
	o.set("wire.encode_req_ns", "ns", enc)
	o.set("wire.decode_resp_ns", "ns", dec)
	o.set("wire.req_bytes", "bytes", float64(reqBytes)/float64(max(singles, 1)))
	o.set("wire.resp_bytes", "bytes", float64(respBytes)/float64(max(singles, 1)))
	o.set("coord.do_ns", "ns", coordDo)
	o.set("coord.batch_do_ns", "ns", batchDo.median())
	o.set("coord.self_ns", "ns", coordSelf)
	o.set("coord.hop_ns", "ns", rtr.totalMedian("hop"))
	o.set("coord.calls_per_query", "count", float64(calls)/float64(max(queries, 1)))
	o.set("coord.retries", "count", float64(retries))
	o.set("coord.errors", "count", float64(errs))
	o.set("engine.topk_ns", "ns", topk.median())
	o.set("adsserver.http_us", "us", httpNS/1e3)
	o.set("adsserver.cache_hits", "count", float64(hits))
	o.set("adsserver.cache_misses", "count", float64(misses))
	e.logf("coordinator /statsz: %d queries, %d shard calls, %d retries, %d errors during the traced pass", queries, calls, retries, errs)
	cov := printLayerTable(e.out, "serve-scatter", e2e, []layerRow{
		{"wire.encode (client)", enc, "span"},
		{"coord (self)", coordSelf, "span, in-process replica"},
		{"shard hops (engine)", coordDo - coordSelf, "span, in-process replica"},
		{"wire.decode (client)", dec, "span"},
		{"adsserver HTTP", httpNS, "derived: p50 - in-process chain"},
	}, plain.lat.median())
	o.set("serve-scatter.coverage_pct", "%", 100*cov)
	o.set("serve-scatter.trace_overhead_ns", "ns", e2e-plain.lat.median())
	return o, e.writeSpans("serve-scatter", tr)
}
