// Command perfbench is the sort system's benchmark: it drives the real
// binaries (cmd/mlmserve, cmd/mlmcoord) through one named workload from
// one client process, checks every result, and prints the workload's
// metrics. Run it through run.sh, which builds everything from source:
//
//	bash perfbench/run.sh --workload bulk-i64 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// measures the per-layer metrics instead and writes a span file. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every number is also written
// as a ledger record (layer, name, metric, value, unit, commit, host,
// nproc, GOMAXPROCS, go version, seed) to standard output and to
// .bench_build/ledger.jsonl. See perfbench/README.md for the workloads
// and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

var inf = math.Inf(1)

// runDeadline bounds one invocation's traffic, well inside the three
// minutes a run may take.
const runDeadline = 150 * time.Second

// env is what one invocation knows about where and how it runs.
type env struct {
	root     string // repository checkout
	out      string // .bench_build under root
	work     string // this invocation's scratch dir, removed at exit
	workload string
	seed     int64
	seconds  int
	trace    bool

	commit, host, goVersion string
	nproc, gomaxprocs       int
}

func (e *env) bin(name string) string { return filepath.Join(e.out, "bin", name) }

// metric is one reported number.
type metric struct {
	layer, name, unit string
	value             float64
}

// report collects one invocation's outcome.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	wrong     int
	notes     []string
}

// add records one metric. JSON has no infinities: a latency that is
// +Inf because no job returned a verified result is reported as the
// largest float, and a NaN (a ratio of two empty counts) as 0.
func (r *report) add(layer, name, unit string, v float64) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	}
	r.metrics = append(r.metrics, metric{layer: layer, name: name, unit: unit, value: v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	e := &env{}
	flag.StringVar(&e.root, "root", ".", "repository root (holds .bench_build/bin)")
	flag.StringVar(&e.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&e.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&e.seconds, "seconds", 30, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	flag.Parse()
	e.trace = *trace == 1
	correct, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures one workload and reports whether every result passed
// its check.
func run(e *env) (bool, error) {
	w, ok := workloads[e.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want one of %s)", e.workload, strings.Join(workloadNames(), ", "))
	}
	if e.seconds < 1 {
		return false, fmt.Errorf("--seconds must be at least 1")
	}
	root, err := filepath.Abs(e.root)
	if err != nil {
		return false, err
	}
	e.root = root
	e.out = filepath.Join(root, ".bench_build")
	for _, b := range []string{"mlmserve", "mlmcoord"} {
		if _, err := os.Stat(e.bin(b)); err != nil {
			return false, fmt.Errorf("server binary missing (build with run.sh): %w", err)
		}
	}
	e.work, err = os.MkdirTemp(e.out, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(e.work)
	e.host, _ = os.Hostname()
	e.nproc, e.gomaxprocs, e.goVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	e.commit = sourceCommit(root)

	// A hung server must not hang the benchmark: every request of the
	// run shares one deadline.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var rep *report
	if e.trace {
		rep, err = w.traced(ctx, e)
	} else {
		rep, err = w.endToEnd(ctx, e)
	}
	if err != nil {
		return false, err
	}
	return rep.wrong == 0, emit(e, w, rep)
}

// emit prints the human table, the ledger records and, last, the result
// object.
func emit(e *env, w *workload, rep *report) error {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rep.note("client cpu %.2f s user, %.2f s sys", time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds())
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	ledger, err := os.OpenFile(filepath.Join(e.out, "ledger.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	metrics := map[string]map[string]any{}
	for _, m := range rep.metrics {
		rec := map[string]any{
			"layer": m.layer, "name": w.name, "metric": m.name, "value": m.value, "unit": m.unit,
			"commit": e.commit, "host": e.host, "nproc": e.nproc, "gomaxprocs": e.gomaxprocs,
			"go": e.goVersion, "seed": e.seed, "trace": e.trace,
		}
		line, _ := json.Marshal(rec)
		fmt.Printf("ledger %s\n", line)
		if _, err := fmt.Fprintf(ledger, "%s\n", line); err != nil {
			ledger.Close()
			return err
		}
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if err := ledger.Close(); err != nil {
		return err
	}
	for _, m := range rep.metrics {
		fmt.Printf("%-10s %-32s %14.4f %s\n", m.layer, m.name, m.value, m.unit)
	}
	correct := rep.wrong == 0
	out, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(rep.attempted, 1), "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d result(s) failed the sorted-permutation check\n", rep.wrong)
	}
	return nil
}

// sourceCommit names the code under test: the git commit when the
// checkout is a repository, else a digest of the sources that build the
// servers (go.mod plus every .go file under cmd/ and internal/).
func sourceCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
