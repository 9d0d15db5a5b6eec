package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"knlmlm/perfbench/kernels"
)

// traced is the per-layer run. It replays each layer's public functions
// at the workloads' shapes in process, then runs the workload against
// the real fleet twice, half the window each: untraced, then traced
// (client spans, per-job server traces, /metrics and /debug scrapes).
// The ratio of the two passes' median latency is trace.overhead. Behind
// a coordinator a third pass of the same length sends the same inputs
// straight to one backend, for cluster.coord_overhead.
func (w *workload) traced(ctx context.Context, e *env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	rep := &report{}
	tr := newTracer()
	inputs := w.inputs(rng)
	if err := layerReplays(e, rand.New(rand.NewSource(e.seed+1)), tr, rep); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	f, _, err := bootFleet(e, w)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	c := newClient(e.nproc)
	defer c.close()
	w.warm(ctx, c, f.url, inputs, rep)
	half := time.Duration(e.seconds) * time.Second / 2

	plain := runClosedLoop(ctx, c, f.url, inputs, time.Now().Add(half), nil)
	rep.count(plain)
	before, err := scrapeAll(ctx, c, f.backends)
	if err != nil {
		return nil, err
	}
	coordBefore, err := scrapeAll(ctx, c, f.coordinator())
	if err != nil {
		return nil, err
	}
	tracedStart := time.Now()
	res := runClosedLoop(ctx, c, f.url, inputs, time.Now().Add(half), tr)
	rep.count(res)
	after, err := scrapeAll(ctx, c, f.backends)
	if err != nil {
		return nil, err
	}
	coordAfter, err := scrapeAll(ctx, c, f.coordinator())
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run did not finish within %v", runDeadline)
	}
	traces, err := fetchTraces(ctx, c, f.backends, tracedStart)
	if err != nil {
		return nil, err
	}
	var overload struct {
		Drift *struct {
			P50 float64 `json:"p50"`
		} `json:"model_drift"`
	}
	if err := c.getJSON(ctx, f.backends[0]+"/debug/overload", &overload); err != nil {
		return nil, err
	}

	// Client-side views of the traced pass.
	byID := map[string]*jobResult{}
	var lat, verifiedLat, late, skews []float64
	parts, verified := 0, 0
	for _, r := range res {
		lat = append(lat, r.latencyMS())
		late = append(late, float64(r.late.Nanoseconds())/1e6)
		if r.out != okVerified {
			continue
		}
		verified++
		byID[r.id] = r
		verifiedLat = append(verifiedLat, r.latencyMS())
		parts += r.parts
		skews = append(skews, r.skew)
	}
	jobs := float64(max(verified, 1))

	// Server-side phases, attached to the client's job spans.
	var admit, queue, lease, runP, overhead, chunks []float64
	for _, t := range traces {
		admit = append(admit, t.PhasesMS["admit"])
		queue = append(queue, t.PhasesMS["queue"])
		lease = append(lease, t.PhasesMS["lease"])
		runP = append(runP, t.PhasesMS["run"])
		chunks = append(chunks, float64(t.megachunks))
		r := byID[t.ID]
		var trace uint64
		if r != nil && w.backends == 0 {
			trace = r.trace
			overhead = append(overhead, r.wallMS()-t.wallMS())
		}
		at := t.Submitted
		for _, ph := range []string{"admit", "queue", "lease", "run"} {
			d := time.Duration(t.PhasesMS[ph] * 1e6)
			tr.add(trace, trace, "sched", ph, at, d, map[string]any{"job": t.ID})
			at = at.Add(d)
		}
		if r != nil {
			d := time.Duration(t.PhasesMS["stream"] * 1e6)
			tr.add(trace, trace, "serve", "stream", r.done.Add(-d), d, map[string]any{"job": t.ID})
		}
	}
	if w.backends > 0 {
		for _, r := range byID {
			overhead = append(overhead, r.wallMS()-float64(r.srvWall.Nanoseconds())/1e6)
		}
	}

	rep.add("serve", "serve.overhead_p50_ms", "ms", median(overhead))
	rep.add("serve", "serve.binary_p50_ms", "ms", median(verifiedLat))
	rep.add("sched", "sched.admit_p50_ms", "ms", median(admit))
	rep.add("sched", "sched.queue_p50_ms", "ms", median(queue))
	rep.add("sched", "sched.lease_p50_ms", "ms", median(lease))
	rep.add("sched", "sched.run_p50_ms", "ms", median(runP))
	rep.add("sched", "sched.queue_p99_ms", "ms", percentile(queue, 99))
	rejectedN := 0
	for _, r := range res {
		if r.out == rejected {
			rejectedN++
		}
	}
	rep.add("sched", "sched.rejected", "count", float64(rejectedN))
	rep.add("sched", "sched.shed", "count", delta(before, after, "sched_shed_total"))
	rep.add("sched", "sched.merge_s", "s", delta(before, after, `job_phase_seconds_sum{phase="merge"}`)/jobs)
	rep.add("sched", "sched.stream_s", "s", delta(before, after, `job_phase_seconds_sum{phase="stream"}`)/jobs)
	runsPerJob := delta(before, after, "sched_spill_runs_total") / jobs
	rep.add("spill", "spill.runs_per_job", "count", runsPerJob)
	rep.add("spill", "spill.bytes_written_per_job", "bytes", delta(before, after, "sched_spill_bytes_written_total")/jobs)

	drift := 0.0
	if overload.Drift != nil {
		drift = overload.Drift.P50
	} else {
		drift = after.sum(`sched_model_drift{class="`+w.driftClass()+`"}`) / float64(max(len(f.backends), 1))
	}
	rep.add("tune", "tune.model_drift", "ratio", drift)

	// The server's own megachunk count per job, and a check that the
	// in-process replays still run at the shapes the scheduler plans.
	megachunks := median(chunks)
	rep.add("mlmsort", "mlmsort.megachunks_per_job", "count", megachunks)
	switch {
	case w.name == "bulk-i64" && megachunks != kernels.BulkFanIn:
		rep.note("REPLAY SHAPES STALE: the server staged bulk-i64 jobs as %g megachunks, the replays assume %d; update kernels.BulkMegachunk", megachunks, kernels.BulkFanIn)
	case w.spill && runsPerJob != recRuns:
		rep.note("REPLAY SHAPES STALE: the server spilled %g runs per spill-rec job, the replays assume %d; update recRunCells", runsPerJob, recRuns)
	}

	coordOverhead := 0.0
	if w.backends > 0 {
		// The untraced pass's inputs sent straight to one backend: a
		// warmed closed loop of the same length, so both medians rest on
		// comparable samples.
		w.warm(ctx, c, f.backends[0], inputs, rep)
		direct := runClosedLoop(ctx, c, f.backends[0], inputs, time.Now().Add(half), nil)
		rep.count(direct)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run did not finish within %v", runDeadline)
		}
		coordOverhead = median(tallyOf(plain).lat) / median(tallyOf(direct).lat)
		rep.note("cluster.coord_overhead: %d coordinator jobs over %d direct jobs", len(plain), len(direct))
	}
	rep.add("cluster", "cluster.partitions_per_job", "count", float64(parts)/jobs)
	rep.add("cluster", "cluster.retries", "count", delta(coordBefore, coordAfter, "cluster_partition_retries_total"))
	rep.add("cluster", "cluster.resamples", "count", delta(coordBefore, coordAfter, "cluster_partition_resamples_total"))
	rep.add("cluster", "cluster.merge_stall_s_per_job", "s", delta(coordBefore, coordAfter, "cluster_merge_stall_seconds_total")/jobs)
	rep.add("cluster", "cluster.skew_max", "ratio", maxOf(skews))
	rep.add("cluster", "cluster.coord_overhead", "ratio", coordOverhead)

	rep.add("harness", "gen.late_p99_ms", "ms", percentile(late, 99))
	rep.add("harness", "trace.overhead", "ratio", median(lat)/median(tallyOf(plain).lat))

	dir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("span file %s (%d spans, %d server job traces)", path, tr.count(), len(traces))
	return rep, nil
}

// driftClass is the scheduler job class this workload's jobs run as.
func (w *workload) driftClass() string {
	if w.spill {
		return "spill"
	}
	return "staged"
}

// coordinator returns the coordinator URL as a one-element list, or
// nothing when the fleet is a single server.
func (f *fleet) coordinator() []string {
	if len(f.procs) > len(f.backends) {
		return []string{f.url}
	}
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
