package psort

import (
	"testing"

	"knlmlm/internal/workload"
)

// Kernel benchmarks: old vs new sort and merge paths. cmd/kernelbench runs
// these same shapes programmatically to produce the committed BENCH_PR3.json.

func benchSort(b *testing.B, n int, sortFn func([]int64)) {
	src := workload.Generate(workload.Random, n, 1)
	buf := make([]int64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, src)
		b.StartTimer()
		sortFn(buf)
	}
}

func BenchmarkSerial1e6(b *testing.B) { benchSort(b, 1_000_000, Serial) }

func BenchmarkRadix1e6(b *testing.B) {
	scratch := make([]int64, 1_000_000)
	benchSort(b, 1_000_000, func(xs []int64) { RadixSortScratch(xs, scratch) })
}

func BenchmarkSerial1e5(b *testing.B) { benchSort(b, 100_000, Serial) }

func BenchmarkRadix1e5(b *testing.B) {
	scratch := make([]int64, 100_000)
	benchSort(b, 100_000, func(xs []int64) { RadixSortScratch(xs, scratch) })
}

func benchRuns(k, runLen int) [][]int64 {
	runs := make([][]int64, k)
	for i := range runs {
		r := workload.Generate(workload.Random, runLen, int64(i+1))
		Serial(r)
		runs[i] = r
	}
	return runs
}

func benchMergeK(b *testing.B, k, runLen int, batched bool) {
	src := benchRuns(k, runLen)
	dst := make([]int64, k*runLen)
	b.SetBytes(int64(k * runLen * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lt := NewLoserTree(src)
		b.StartTimer()
		if batched {
			lt.MergeIntoBatched(dst)
		} else {
			lt.MergeInto(dst)
		}
	}
}

func BenchmarkMergePerElementK8(b *testing.B)  { benchMergeK(b, 8, 100_000, false) }
func BenchmarkMergeBatchedK8(b *testing.B)     { benchMergeK(b, 8, 100_000, true) }
func BenchmarkMergePerElementK16(b *testing.B) { benchMergeK(b, 16, 50_000, false) }
func BenchmarkMergeBatchedK16(b *testing.B)    { benchMergeK(b, 16, 50_000, true) }

// Blocky runs — each run holds contiguous key blocks, the shape produced
// by range-partitioned producers — where the batched drain's bulk copies
// dominate.
func benchBlockyRuns(k, runLen, blockLen int) [][]int64 {
	runs := make([][]int64, k)
	next := int64(0)
	for len(runs[k-1]) < runLen {
		for i := 0; i < k; i++ {
			for j := 0; j < blockLen && len(runs[i]) < runLen; j++ {
				runs[i] = append(runs[i], next)
				next++
			}
		}
	}
	return runs
}

func benchMergeKBlocky(b *testing.B, k, runLen int, batched bool) {
	src := benchBlockyRuns(k, runLen, 512)
	dst := make([]int64, k*runLen)
	b.SetBytes(int64(k * runLen * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lt := NewLoserTree(src)
		b.StartTimer()
		if batched {
			lt.MergeIntoBatched(dst)
		} else {
			lt.MergeInto(dst)
		}
	}
}

func BenchmarkMergePerElementK8Blocky(b *testing.B) { benchMergeKBlocky(b, 8, 100_000, false) }
func BenchmarkMergeBatchedK8Blocky(b *testing.B)    { benchMergeKBlocky(b, 8, 100_000, true) }

func benchMerge2(b *testing.B, n int, fn func(dst, a, b []int64)) {
	a := workload.Generate(workload.Random, n, 7)
	bb := workload.Generate(workload.Random, n, 8)
	Serial(a)
	Serial(bb)
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, a, bb)
	}
}

func BenchmarkMerge2Linear(b *testing.B) { benchMerge2(b, 500_000, merge2Linear) }
func BenchmarkMerge2Gallop(b *testing.B) { benchMerge2(b, 500_000, Merge2) }

// Structured inputs where galloping should shine: disjoint ranges.
func BenchmarkMerge2LinearDisjoint(b *testing.B) {
	n := 500_000
	a := make([]int64, n)
	bb := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i)
		bb[i] = int64(i + n)
	}
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge2Linear(dst, a, bb)
	}
}

func BenchmarkMerge2GallopDisjoint(b *testing.B) {
	n := 500_000
	a := make([]int64, n)
	bb := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i)
		bb[i] = int64(i + n)
	}
	dst := make([]int64, 2*n)
	b.SetBytes(int64(2 * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge2(dst, a, bb)
	}
}
