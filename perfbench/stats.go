package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func (h *hist) count() int { return int(h.n) }

// durations is a list of timing samples in nanoseconds.
type durations []int64

func (d *durations) add(t time.Duration) { *d = append(*d, int64(t)) }

// quantile returns the q-quantile (nearest rank) of the samples, which
// it sorts in place; 0 for no samples.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	i = max(0, min(i, len(d)-1))
	return float64(d[i])
}

func (d durations) median() float64 { return d.quantile(0.5) }

// hist is a log-linear latency histogram in nanoseconds: exact below
// 128 ns, then 64 buckets per power of two (under 1.6% wide).  It keeps
// long closed-loop runs from holding millions of samples, which would
// otherwise dominate the process's own rss_mb.
type hist struct {
	counts [64 * 36]uint64
	n      uint64
}

func histBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e is in [64, 128)
	return min(64*(e+1)+int(v>>e)-64, 64*36-1)
}

// histLow returns bucket i's lower bound and width.
func histLow(i int) (float64, float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := i/64 - 1
	return float64(uint64(i%64+64) << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated by rank within its
// bucket; 0 for no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, math.Ceil(q*float64(h.n)))
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := histLow(i)
			return low + width*(rank-cum-0.5)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

func (h *hist) median() float64 { return h.quantile(0.5) }

// tailQ is the highest percentile with at least ten samples beyond it,
// capped at p99 and floored at the median.
func tailQ(n int) float64 {
	q := 1 - 10/float64(n)
	return max(0.5, min(0.99, q))
}

// medianOf returns the median of a few float samples.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so input generation does not count towards rss_mb.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peaks collects the peak RSS of repeated units of work: rss_mb is
// their median, steadier than one peak over a whole run, which depends
// on where the garbage collector happened to run.
type peaks []float64

// around runs fn with the peak counter restarted and records its peak.
// A collection first makes every unit start from the same live heap.
func (p *peaks) around(fn func() error) error {
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	mb, err := peakRSSMB(0)
	*p = append(*p, mb)
	return err
}

// provenance describes the machine and source tree a result came from.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoLOC      int    `json:"non_test_go_loc"`
}

func readProvenance(root string) provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown (not a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	// Non-test Go lines of the program, and a digest of those sources
	// that identifies the tree when there is no commit to name it.
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		p.GoLOC += strings.Count(string(b), "\n")
	}
	p.SourceHash = hex.EncodeToString(h.Sum(nil))
	return p
}
