package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"knlmlm/perfbench/kernels"
)

// workload is one named traffic mix: the fleet it runs against, the
// inputs it sends, and how many jobs warm it up. Every workload is one
// closed-loop client.
type workload struct {
	name, why string
	// tailPct is job_tail_ms's percentile: the highest with at least ten
	// samples beyond it at this workload's job count per window.
	tailPct float64
	// backends > 0 puts that many mlmserve backends behind one mlmcoord.
	backends    int
	serverFlags []string
	coordArgs   []string
	spill       bool // give each server a private spill directory
	warmupJobs  int  // verified jobs before the window
	inputs      func(rng *rand.Rand) []*job
}

// workloads are the named traffic mixes, all gated by BENCHMARK.json.
var workloads = map[string]*workload{
	"bulk-i64": {
		name:        "bulk-i64",
		why:         "closed loop, 4Mi-key int64 jobs vs a 16 MiB MCDRAM budget, the paper's case: radix, k-way merge and staging do the work; tail=p80 over ~70 jobs",
		tailPct:     80,
		serverFlags: []string{"-budget-mb", "16", "-retain", "4"},
		warmupJobs:  3,
		inputs: func(rng *rand.Rand) []*job {
			return []*job{newInt64Job(rng, kernels.BulkKeys), newInt64Job(rng, kernels.BulkKeys), newInt64Job(rng, kernels.BulkKeys)}
		},
	},
	"spill-rec": {
		name:        "spill-rec",
		why:         "closed loop, 2Mi key+payload records vs a 16 MiB DDR budget: every job spills runs to disk and streams a disk-backed merge; tail=p80 over ~85 jobs",
		tailPct:     80,
		serverFlags: []string{"-budget-mb", "16", "-ddr-budget-mb", "16", "-disk-budget-mb", "512", "-retain", "4"},
		spill:       true,
		warmupJobs:  3,
		inputs: func(rng *rand.Rand) []*job {
			return []*job{newRecordJob(rng, recRecords, recKeyRange), newRecordJob(rng, recRecords, recKeyRange), newRecordJob(rng, recRecords, recKeyRange)}
		},
	},
	"cluster-2": {
		name:        "cluster-2",
		why:         "closed loop, 1Mi-key int64 jobs through mlmcoord over two mlmserve backends: partitioning, scatter and the coordinator merge; tail=p90 over ~250 jobs",
		tailPct:     90,
		backends:    2,
		serverFlags: []string{"-budget-mb", "16", "-retain", "8"},
		coordArgs:   []string{"-retain", "4"},
		warmupJobs:  3,
		inputs: func(rng *rand.Rand) []*job {
			return []*job{newInt64Job(rng, 1<<20), newInt64Job(rng, 1<<20), newInt64Job(rng, 1<<20), newInt64Job(rng, 1<<20)}
		},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// serverArgs are the mlmserve flags for this workload.
func (w *workload) serverArgs(e *env) []string {
	args := slices.Clone(w.serverFlags)
	if w.spill {
		dir := filepath.Join(e.work, "spill")
		_ = os.MkdirAll(dir, 0o755) // a missing directory fails the boot, which reports it
		args = append(args, "-spill-dir", dir)
	}
	return args
}

// tally summarizes one window's jobs.
type tally struct {
	lat           []float64 // ms net of steal, +Inf for jobs without a verified result
	wall          []float64 // the same latencies on the wall clock
	verified      int
	verifiedBytes int64
	errors        int
	first, last   time.Time // earliest due, latest completion
}

func tallyOf(res []*jobResult) tally {
	var t tally
	for _, r := range res {
		t.lat = append(t.lat, r.latencyMS())
		t.wall = append(t.wall, r.wallMS())
		if t.first.IsZero() || r.due.Before(t.first) {
			t.first = r.due
		}
		if r.out == okVerified {
			t.verified++
			t.verifiedBytes += r.job.bytes()
			if r.done.After(t.last) {
				t.last = r.done
			}
		} else {
			t.errors++
		}
	}
	return t
}

// count adds a window's jobs to the report's attempted/failed/wrong.
func (rep *report) count(res []*jobResult) {
	for _, r := range res {
		rep.attempted++
		if r.out != okVerified {
			rep.failed++
			if len(rep.notes) < 8 {
				rep.note("job %s (%d keys): %v: %v", r.id, r.job.n, r.out, r.err)
			}
		}
		if r.out == wrong {
			rep.wrong++
		}
	}
}

// setupBoots is how many times a run boots its fleet; setup_s is the
// median of their times to ready.
const setupBoots = 15

// setup boots the fleet setupBoots times, keeping the last one, and
// returns each boot's time to ready and the steal share over all boots.
func (w *workload) setup(e *env) (*fleet, []float64, float64, error) {
	var setups []float64
	cpu0 := readCPUTicks()
	for i := 0; ; i++ {
		f, d, err := bootFleet(e, w)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("boot %s fleet: %w", w.name, err)
		}
		setups = append(setups, d.Seconds())
		if i == setupBoots-1 {
			return f, setups, stealShare(cpu0, readCPUTicks()), nil
		}
		f.stop()
	}
}

// warm sends warmupJobs untimed jobs to url so lazy set-up, pools and
// caches settle before the window. Wrong results still count.
func (w *workload) warm(ctx context.Context, c *client, url string, inputs []*job, rep *report) {
	for i := 0; i < w.warmupJobs; i++ {
		r := newJobResult(inputs[i%len(inputs)])
		closedJob(ctx, c, url, r, nil)
		if r.out == wrong {
			rep.wrong++
			rep.note("warm-up job %s: %v", r.id, r.err)
		}
	}
}

// endToEnd is the untraced run: set-up, warm-up, the measured window,
// and every end-to-end metric.
func (w *workload) endToEnd(ctx context.Context, e *env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	rep := &report{}
	inputs := w.inputs(rng)
	f, setups, setupSteal, err := w.setup(e)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	c := newClient(e.nproc)
	defer c.close()
	w.warm(ctx, c, f.url, inputs, rep)

	cpu0, _, err := f.usage()
	if err != nil {
		return nil, err
	}
	start, ticks0 := time.Now(), readCPUTicks()
	res := runClosedLoop(ctx, c, f.url, inputs, start.Add(time.Duration(e.seconds)*time.Second), nil)
	winSteal := stealShare(ticks0, readCPUTicks())
	cpu1, hwm, err := f.usage()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run did not finish within %v", runDeadline)
	}
	rep.count(res)
	win := tallyOf(res)
	win.first = start
	if win.last.IsZero() { // no verified job: the window ran until now
		win.last = time.Now()
	}
	wall := win.last.Sub(win.first).Seconds()
	rep.note("window: %d jobs over %.2f s; job_tail_ms is p%g with %d samples beyond it", len(win.lat), wall, w.tailPct, beyond(len(win.lat), w.tailPct))
	rep.note("steal took %.1f%% of the CPU time wanted in the window (%.1f%% during set-up); on the wall clock: setup_s %.4f, job_p50_ms %.2f, job_tail_ms %.2f, goodput_jobs_s %.3f",
		100*winSteal, 100*setupSteal, median(setups), median(win.wall), percentile(win.wall, w.tailPct), float64(win.verified)/wall)
	// Timed metrics are net of steal (steal.go): a window of wall time W
	// in which steal took share s gave the fleet W*(1-s) of CPU time.
	net := wall * (1 - winSteal)
	rep.add("e2e", "setup_s", "s", median(setups)*(1-setupSteal))
	rep.add("e2e", "job_p50_ms", "ms", median(win.lat))
	rep.add("e2e", "job_tail_ms", "ms", percentile(win.lat, w.tailPct))
	rep.add("e2e", "goodput_jobs_s", "jobs/s", float64(win.verified)/net)
	rep.add("e2e", "sort_mb_s", "MB/s", float64(win.verifiedBytes)/1e6/net)
	rep.add("e2e", "ok_ratio", "ratio", 1-float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.add("e2e", "server_rss_mb", "MiB", hwm)
	rep.add("e2e", "server_cpu_s_per_gb", "s/GB", (cpu1-cpu0)/(float64(win.verifiedBytes)/1e9))
	return rep, nil
}
