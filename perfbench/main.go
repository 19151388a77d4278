// Command perfbench is the repository benchmark.  It runs one of four
// workloads — serve-point, serve-scatter, ingest-live, build — for a
// given seed and prints every end-to-end metric, or with -trace 1 runs
// every workload's traced pass and prints the per-layer metrics.  Its
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it and
// the adsserver binary first.  See README.md for the workloads, the
// metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload pass reports.
type outcome struct {
	attempted, failed int64
	// problems lists failed output checks; any makes the run incorrect.
	problems []string
	metrics  map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// merge adds another pass's counts, problems and metrics.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
	for k, v := range p.metrics {
		o.metrics[k] = v
	}
}

// env is what every workload runs with.
type env struct {
	root      string // repository root
	adsserver string // adsserver binary
	dir       string // this run's scratch directory
	seed      uint64
	sc        scale
	out       io.Writer // human-readable report
	serve     *serveData
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

type workload struct {
	name string
	// run measures the end-to-end metrics for dur.
	run func(e *env, dur time.Duration) (*outcome, error)
	// trace measures an untraced then a traced pass, dur/2 each, and
	// reports the per-layer metrics.
	trace func(e *env, dur time.Duration) (*outcome, error)
}

var workloads = []workload{
	{name: "serve-point", run: runServePoint, trace: traceServePoint},
	{name: "serve-scatter", run: runServeScatter, trace: traceServeScatter},
	{name: "ingest-live", run: runIngestLive, trace: traceIngestLive},
	{name: "build", run: runBuild, trace: traceBuild},
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-point, serve-scatter, ingest-live or build")
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same graphs, edges and queries")
	seconds := fs.Int("seconds", 10, "measured seconds per workload pass")
	trace := fs.Int("trace", 0, "1 = run every workload's traced pass and print the per-layer metrics")
	root := fs.String("root", ".", "repository root")
	adsserver := fs.String("adsserver", "", "adsserver binary (built by run.sh)")
	scaleName := fs.String("scale", "full", "input sizes: full, or tiny for the self-tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	sc, ok := scales[*scaleName]
	switch {
	case wl == nil:
		return fmt.Errorf("unknown -workload %q", *name)
	case !ok:
		return fmt.Errorf("unknown -scale %q", *scaleName)
	case *seconds < 1:
		return fmt.Errorf("-seconds %d, want >= 1", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d, want 0 or 1", *trace)
	case *adsserver == "":
		return errors.New("-adsserver is required (run through perfbench/run.sh)")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(absRoot, "go.mod")); err != nil {
		return fmt.Errorf("-root %s is not the repository root: %w", absRoot, err)
	}
	dir, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		return fmt.Errorf("creating the run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	e := &env{root: absRoot, adsserver: *adsserver, dir: dir, seed: *seed, sc: sc, out: stdout}
	prov, _ := json.Marshal(readProvenance(absRoot))
	e.logf("provenance %s", prov)
	e.logf("workload %s seed %d seconds %d trace %d scale %s", wl.name, *seed, *seconds, *trace, sc.name)

	dur := time.Duration(*seconds) * time.Second
	total := newOutcome()
	if *trace == 1 {
		// Four workloads' passes must fit one run, so each gets at most
		// 10 s: half untraced, half traced.
		traceDur := min(dur, 10*time.Second)
		for _, w := range workloads {
			e.logf("== traced pass: %s", w.name)
			o, err := w.trace(e, traceDur)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", w.name, err)
			}
			total.merge(o)
		}
	} else {
		o, err := wl.run(e, dur)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		total.merge(o)
	}
	for _, p := range total.problems {
		e.logf("CHECK FAILED: %s", p)
	}
	res := result{
		Correct:   len(total.problems) == 0 && total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   total.metrics,
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
