package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"adsketch"
	"adsketch/internal/distbuild"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// buildServer compiles adsserver for the serve-scatter workload.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adsserver")
	out, err := exec.Command("go", "build", "-o", bin, "adsketch/cmd/adsserver").CombinedOutput()
	if err != nil {
		t.Fatalf("building adsserver: %v\n%s", err, out)
	}
	return bin
}

// runTiny runs the benchmark in process at the tiny scale and returns
// the report and the parsed result line.
func runTiny(t *testing.T, server, workload string, trace int) (string, result) {
	t.Helper()
	if err := os.MkdirAll("../.bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := []string{"-root", "..", "-adsserver", server, "-scale", "tiny",
		"--workload", workload, "--seed", "5", "--seconds", "1", "--trace", strconv.Itoa(trace)}
	if err := mainErr(args, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return out.String(), res
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	server := buildServer(t)
	for _, w := range bj.Workloads {
		report, res := runTiny(t, server, w.Name, 0)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.Name, res.Correct, res.Attempted, res.Failed, report)
		}
		if len(res.Metrics) != len(bj.EndToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end metrics", w.Name, len(res.Metrics), len(bj.EndToEnd))
		}
		for _, m := range bj.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.Name, m.Name, got, m.Unit)
			}
		}
		if !strings.Contains(report, `"non_test_go_loc"`) || !strings.Contains(report, `"gomaxprocs"`) {
			t.Errorf("%s: report lacks the provenance header", w.Name)
		}
	}
	report, res := runTiny(t, server, bj.Workloads[0].Name, 1)
	if !res.Correct {
		t.Errorf("traced run incorrect\n%s", report)
	}
	if len(res.Metrics) != len(bj.PerLayer) {
		t.Errorf("traced run: %d metrics, want the %d per-layer metrics", len(res.Metrics), len(bj.PerLayer))
	}
	for _, m := range bj.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced run: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	for _, w := range bj.Workloads {
		if !strings.Contains(report, "layer table "+w.Name) {
			t.Errorf("traced run: no layer table for %s", w.Name)
		}
	}
}

func TestCorruptedOutputsAreCaught(t *testing.T) {
	e := &env{seed: 9, sc: scales["tiny"], dir: t.TempDir(), out: &bytes.Buffer{}}

	// A flipped byte in one distbuild partition.
	gs, err := prepareBuild(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadGraphs(gs); err != nil {
		t.Fatal(err)
	}
	set, _, _, err := gs[0].buildOnce(e, newOutcome())
	if err != nil {
		t.Fatal(err)
	}
	want := gs[0].want
	exs, err := distbuild.NewLocalExchangers(gs[0].spec(e))
	if err != nil {
		t.Fatal(err)
	}
	res, err := distbuild.Run(context.Background(), exs)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	checkParts(res, want, o)
	if len(o.problems) != 0 {
		t.Fatalf("clean partitions flagged: %v", o.problems)
	}
	res.Partitions[1][len(res.Partitions[1])/2] ^= 0x01
	checkParts(res, want, o)
	if len(o.problems) != 1 {
		t.Fatalf("flipped partition byte: %d problems, want 1", len(o.problems))
	}

	// An altered query response.
	ref, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	req := adsketch.Request{Harmonic: &adsketch.HarmonicQuery{Nodes: []int32{1, 2}}}
	resp, err := ref.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeResponse(&resp)
	if checked(frame, &resp, nil) != 0 {
		t.Fatal("the reference answer itself was flagged")
	}
	resp.Scores[1] += 1e-9
	if checked(frame, &resp, nil) != 1 {
		t.Fatal("an altered score was not caught")
	}

	// A flipped byte in the last published ingest version.
	base := prepareIngest(e, time.Second)[0]
	live, _, err := startLive(e, base, filepath.Join(e.dir, "live"))
	if err != nil {
		t.Fatal(err)
	}
	defer live.close()
	run := &ingestRun{}
	if err := run.runLive(live, base, nil); err != nil {
		t.Fatal(err)
	}
	o = newOutcome()
	if err := checkLive(e, base, run.lastPath, o); err != nil || len(o.problems) != 0 {
		t.Fatalf("clean ingest run flagged: %v %v", err, o.problems)
	}
	b, err := os.ReadFile(run.lastPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x80
	bad := filepath.Join(e.dir, "flipped.v3")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkLive(e, base, bad, o); err != nil || len(o.problems) != 1 {
		t.Fatalf("flipped ingest byte: err %v, problems %v", err, o.problems)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{5, 9}}, 4},
		{[][2]int64{{10, 20}, {0, 5}}, 15},
		{[][2]int64{{0, 10}, {2, 4}, {8, 15}}, 15},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sc := scales["tiny"]
	inputs := func(seed uint64) []any {
		g := baGraph(seed, sc.serveNodes, sc.m)
		var edges bytes.Buffer
		if err := adsketch.WriteEdgeList(&edges, g); err != nil {
			t.Fatal(err)
		}
		return []any{
			edges.String(),
			pointRequests(newRand(seed, streamPointClient), g.NumNodes(), 100),
			scatterRequests(newRand(seed, streamScatterClient), g.NumNodes(), 100),
			newEdges(newRand(seed, streamIngestEdges), g, 200),
			checkSample(seed, 0, 100, 8),
		}
	}
	a, b, c := inputs(7), inputs(7), inputs(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from seed 7", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}
