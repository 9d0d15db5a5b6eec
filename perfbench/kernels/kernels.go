// Package kernels replays the int64 psort kernels at the benchmark's
// workload shapes and reports each as a median over many calls. It
// imports nothing from the sort system but psort, and only kernels that
// have existed since the radix/loser-tree rewrite, so the same replay
// builds against older commits for a same-host A/B comparison (see
// perfbench/kernelreplay).
package kernels

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"knlmlm/internal/psort"
)

// Workload shapes the int64 kernels are replayed at. They mirror what
// the scheduler plans for the benchmark's workloads (internal/sched
// planFor with its default three staging buffers); the traced run checks
// the bulk-i64 megachunk count against the server's own job traces.
const (
	// bulk-i64: a 4Mi-key job under a 16 MiB MCDRAM budget is staged as
	// 512Ki-key megachunks (a quarter of the job, clamped to the budget
	// over 3 staging buffers + 1 scratch), merged 8 ways, on a 3-thread
	// share.
	BulkKeys      = 4 << 20
	BulkMegachunk = 512 << 10
	BulkFanIn     = BulkKeys / BulkMegachunk
	JobThreads    = 3
	// Small service jobs: int64, log-uniform in [smallMinKeys,
	// smallMaxKeys] keys, all under a 32 MiB budget's batching threshold.
	smallMinKeys = 1 << 10
	smallMaxKeys = 64 << 10
	smallSizes   = 64 // job sizes per sweep
	// Calls is the number of timed calls behind a single-call kernel
	// median; Sweeps the number behind a median of whole sweeps or
	// merges.
	Calls  = 21
	Sweeps = 7
)

// Int64Metrics are the int64 psort kernel metrics of the traced run.
type Int64Metrics struct {
	RadixMBs          float64 `json:"psort.radix_i64_mb_s"`
	SortSmallNsPerKey float64 `json:"psort.sort_small_ns_per_key"`
	MergeKMBs         float64 `json:"psort.mergek_i64_mb_s"`
	ParallelMergeKMBs float64 `json:"psort.parallel_mergek_i64_mb_s"`
}

// Int64 replays the int64 kernels at the workload shapes above: radix
// at bulk-i64's megachunk length, the adaptive sort over small job
// sizes, and the k-way merges at bulk-i64's fan-in.
func Int64(rng *rand.Rand, on OnCall) Int64Metrics {
	sizes := SmallJobSizes(rng)
	return Int64Metrics{
		RadixMBs:          radixI64(rng, BulkMegachunk, Calls, on),
		SortSmallNsPerKey: sortSmallNsPerKey(rng, sizes, Sweeps, on),
		MergeKMBs:         mergeKI64(rng, BulkFanIn, BulkMegachunk, Sweeps, on),
		ParallelMergeKMBs: parallelMergeKI64(rng, BulkFanIn, BulkMegachunk, JobThreads, Sweeps, on),
	}
}

// SmallJobSizes draws one sweep of small service job sizes.
func SmallJobSizes(rng *rand.Rand) []int {
	return stratifiedLogSizes(rng, smallSizes, smallMinKeys, smallMaxKeys)
}

// OnCall, when non-nil, observes every timed call: the metric it feeds,
// when it started, and how long it took. The traced benchmark run turns
// these into spans.
type OnCall func(metric string, start time.Time, d time.Duration)

func (f OnCall) call(metric string, start time.Time, d time.Duration) {
	if f != nil {
		f(metric, start, d)
	}
}

// RandomKeys fills n keys uniformly over the whole int64 range.
func RandomKeys(rng *rand.Rand, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Uint64())
	}
	return xs
}

// stratifiedLogSizes draws count sizes from [lo, hi], one uniformly
// within each of count equal strata of the log range, shuffled. The
// sizes are log-uniform in distribution, with far less seed-to-seed
// spread in the size mix than independent draws.
func stratifiedLogSizes(rng *rand.Rand, count, lo, hi int) []int {
	out := make([]int, count)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(count)
		out[i] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	rng.Shuffle(count, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mbps(bytes int, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

// radixI64 times psort.RadixSortScratch on n random keys, calls times,
// and returns the median rate in MB/s of keys sorted.
func radixI64(rng *rand.Rand, n, calls int, on OnCall) float64 {
	src := RandomKeys(rng, n)
	xs := make([]int64, n)
	scratch := make([]int64, n)
	rates := make([]float64, 0, calls)
	for range calls {
		copy(xs, src)
		t0 := time.Now()
		psort.RadixSortScratch(xs, scratch)
		d := time.Since(t0)
		on.call("psort.radix_i64_mb_s", t0, d)
		rates = append(rates, mbps(8*n, d))
	}
	return median(rates)
}

// sortSmallNsPerKey times psort.SortAdaptive over a sweep of job sizes
// (one call per size, fresh random input each) and returns the median
// over sweeps of nanoseconds per key.
func sortSmallNsPerKey(rng *rand.Rand, sizes []int, sweeps int, on OnCall) float64 {
	maxN := slices.Max(sizes)
	src := RandomKeys(rng, maxN)
	xs := make([]int64, maxN)
	scratch := make([]int64, maxN)
	total := 0
	for _, n := range sizes {
		total += n
	}
	per := make([]float64, 0, sweeps)
	for range sweeps {
		var busy time.Duration
		for _, n := range sizes {
			copy(xs[:n], src[:n])
			t0 := time.Now()
			psort.SortAdaptive(xs[:n], scratch[:n])
			d := time.Since(t0)
			on.call("psort.sort_small_ns_per_key", t0, d)
			busy += d
		}
		per = append(per, float64(busy.Nanoseconds())/float64(total))
	}
	return median(per)
}

// sortedRuns returns k sorted runs of runLen random keys each.
func sortedRuns(rng *rand.Rand, k, runLen int) [][]int64 {
	runs := make([][]int64, k)
	for i := range runs {
		runs[i] = RandomKeys(rng, runLen)
		slices.Sort(runs[i])
	}
	return runs
}

// mergeKI64 times psort.MergeK over k sorted runs of runLen keys and
// returns the median output rate in MB/s.
func mergeKI64(rng *rand.Rand, k, runLen, calls int, on OnCall) float64 {
	runs := sortedRuns(rng, k, runLen)
	dst := make([]int64, k*runLen)
	rates := make([]float64, 0, calls)
	for range calls {
		t0 := time.Now()
		psort.MergeK(dst, runs...)
		d := time.Since(t0)
		on.call("psort.mergek_i64_mb_s", t0, d)
		rates = append(rates, mbps(8*len(dst), d))
	}
	return median(rates)
}

// parallelMergeKI64 is mergeKI64 through psort.ParallelMergeK with p
// workers.
func parallelMergeKI64(rng *rand.Rand, k, runLen, p, calls int, on OnCall) float64 {
	runs := sortedRuns(rng, k, runLen)
	dst := make([]int64, k*runLen)
	rates := make([]float64, 0, calls)
	for range calls {
		t0 := time.Now()
		psort.ParallelMergeK(dst, runs, p)
		d := time.Since(t0)
		on.call("psort.parallel_mergek_i64_mb_s", t0, d)
		rates = append(rates, mbps(8*len(dst), d))
	}
	return median(rates)
}
