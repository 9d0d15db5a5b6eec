package psort

// LSD radix sort: the throughput kernel behind the adaptive dispatcher.
// An introsort moves every element O(log n) times; the radix sort moves
// it at most 8 times (once per byte digit) with purely sequential reads
// and bucketed writes — the streaming access pattern the paper's
// memory-system analysis wants its compute kernels to have. On
// uniform-random 64-bit keys at 1e6+ elements it beats the comparison
// sort severalfold; kernelbench's sort-1e5/sort-1e6 pairs track the
// ratio and CI's bench-smoke step floors it.
//
// The implementation is a classic stable counting sort per 8-bit digit,
// with three adaptivity tricks:
//
//   - all eight digit histograms are built in ONE pass over the input, so
//     the histogram cost does not scale with the number of passes;
//   - digits on which every key agrees (a single occupied bucket) are
//     skipped entirely. Narrow-range inputs (few-unique, sawtooth, small
//     positive ints) therefore pay for only the digits that actually
//     discriminate — e.g. a 17-valued sawtooth runs one pass, not eight;
//   - above radixTileMinLen the scatter runs through software-managed
//     write buffers: each of the 256 buckets stages its elements in a
//     cache-resident buffer that is flushed to the destination in
//     multi-cache-line bursts. The naive scatter keeps 256 random write
//     streams live across a destination that, past LLC capacity, spans
//     tens of megabytes — every write is a miss plus a read-for-ownership
//     of a line that will be fully overwritten anyway. The staged scatter
//     touches destination lines once, whole, in bursts the hardware
//     write-combines into streaming stores; the same discipline the
//     DGEMM-on-KNL kernels apply to their C-tile write-back. The
//     pre-tiling scatter is kept (RadixSortScratchUntiled) as the
//     benchmark baseline and the small-input path, where the destination
//     is cache-resident and staging would be pure overhead.
//
// Signedness is handled on the top digit alone: flipping its high bit
// makes two's-complement order agree with unsigned bucket order.
// float64 keys enter through the same kernel after the keys.go bit
// flip (through the view.go reinterpretation, so the core stays
// concrete []int64), and fixed-width records run the record.go twin of
// the scatter.

// radixDigits is the number of 8-bit digits in a 64-bit key.
const radixDigits = 8

// radixMinLen is the input size at which the dispatcher prefers the radix
// kernel over introsort when scratch is available. Below a few thousand
// elements the O(n) histogram pass and the 16 KiB counter state dominate;
// above it the linear pass count wins. The crossover on amd64 hosts sits
// near 1–2k elements; 2048 is conservative in introsort's favour.
const radixMinLen = 2048

// radixTileMinLen is the input size at which the scatter switches to the
// tiled write buffers. Staging costs two writes per element (stage store
// + burst copy) against the plain scatter's one, so while the
// destination still fits in the last-level cache — where scattered
// writes are already cheap — tiling is strictly extra work and measures
// ~5% slower. Once source + destination outgrow LLC the read-for-
// ownership traffic on scattered misses dominates and the burst flushes
// win it back (1.4–1.6x at 2x the threshold on the tuning host, growing
// with size). 4Mi elements (32 MiB per buffer) sits at the LLC boundary
// of the server parts this targets; EXPERIMENTS.md records the sweep.
const radixTileMinLen = 4 << 20

// tileLine is the per-bucket staging capacity in elements: 64 int64s is
// eight 64-byte cache lines per flush, making the stage array 128 KiB —
// L2-resident rather than L1, which measures better than line-sized
// buffers because each flush amortizes its bounds checks and memmove
// call over 8x the payload while remaining far cheaper than the DRAM
// scatter it replaces. Must stay a power of two (the scatter masks the
// fill index with tileLine-1) and below 256 (fill counters are uint8).
const tileLine = 64

// RadixSort sorts xs ascending, allocating its own scratch buffer. Hot
// paths should use RadixSortScratch (or SortAdaptive) with pooled scratch
// instead.
func RadixSort(xs []int64) {
	if len(xs) < 2 {
		return
	}
	RadixSortScratch(xs, make([]int64, len(xs)))
}

// RadixSortScratch sorts xs ascending using scratch as the ping-pong
// buffer; scratch must be at least as long as xs and must not alias it.
// The sort performs no allocation. Scratch contents on return are
// unspecified. Large inputs scatter through the tiled write buffers;
// small ones use the plain scatter (see radixTileMinLen).
func RadixSortScratch(xs, scratch []int64) {
	radixSortScratch(xs, scratch, len(xs) >= radixTileMinLen)
}

// RadixSortScratchUntiled is the pre-tiling kernel: identical digit
// plan, plain per-element scatter at every size. It is the baseline leg
// of the kernelbench tiling pair and a conformance reference; new code
// should call RadixSortScratch.
func RadixSortScratchUntiled(xs, scratch []int64) {
	radixSortScratch(xs, scratch, false)
}

// radixSortScratch is the shared LSD core; tiled selects the staged
// scatter.
func radixSortScratch(xs, scratch []int64, tiled bool) {
	n := len(xs)
	if n < 2 {
		return
	}
	if len(scratch) < n {
		panic("psort: radix scratch shorter than input")
	}

	// One pass builds all eight histograms. The top digit is biased by
	// 0x80 so negative keys land in the low buckets.
	var counts [radixDigits][256]int
	for _, v := range xs {
		u := uint64(v)
		counts[0][u&0xff]++
		counts[1][(u>>8)&0xff]++
		counts[2][(u>>16)&0xff]++
		counts[3][(u>>24)&0xff]++
		counts[4][(u>>32)&0xff]++
		counts[5][(u>>40)&0xff]++
		counts[6][(u>>48)&0xff]++
		counts[7][(u>>56)^0x80]++
	}

	src, dst := xs, scratch[:n]
	for d := 0; d < radixDigits; d++ {
		c := &counts[d]
		// Skip digits every key agrees on: one bucket holds everything.
		// Probing the bucket of the first key settles it in O(1).
		probe := digit(src[0], d)
		if c[probe] == n {
			continue
		}
		// Exclusive prefix sum: c[b] becomes the first write index for
		// bucket b, which makes the scatter below stable.
		var sum int
		for b := 0; b < 256; b++ {
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		if tiled {
			radixScatterTiled(src, dst, c, d)
		} else {
			radixScatterPlain(src, dst, c, d)
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// radixScatterPlain is the pre-tiling scatter: one write per element,
// straight to the destination bucket cursor. It must stay out of line:
// inlined into radixSortScratch's pass loop, beside the call to the
// tiled scatter, its loop runs ~1.5x slower on amd64 (go1.24), because
// the cursors it keeps in registers here get spilled there.
//
//go:noinline
func radixScatterPlain(src, dst []int64, c *[256]int, d int) {
	for _, v := range src {
		b := digit(v, d)
		dst[c[b]] = v
		c[b]++
	}
}

// radixScatterTiled stages each bucket's elements in a cache-resident
// buffer and flushes whole cache lines to the destination in bursts.
// Flushes keep per-bucket FIFO order, so the scatter stays stable. The
// tail flush drains partial buffers in bucket order. The fill index is
// masked with tileLine-1 (provably in range) so the hot stage store
// carries no bounds check.
func radixScatterTiled(src, dst []int64, c *[256]int, d int) {
	var stage [256][tileLine]int64
	var fill [256]uint8
	for _, v := range src {
		b := digit(v, d)
		f := fill[b]
		stage[b][f&(tileLine-1)] = v
		f++
		if f == tileLine {
			pos := c[b]
			copy(dst[pos:pos+tileLine], stage[b][:])
			c[b] = pos + tileLine
			fill[b] = 0
		} else {
			fill[b] = f
		}
	}
	for b := 0; b < 256; b++ {
		if f := int(fill[b]); f > 0 {
			pos := c[b]
			copy(dst[pos:pos+f], stage[b][:f])
			c[b] = pos + f
		}
	}
}

// digit extracts key v's d-th byte in bucket order (sign-biased top
// byte); the record kernel shares it.
func digit(v int64, d int) uint8 {
	u := uint64(v) >> (8 * d)
	if d == radixDigits-1 {
		u ^= 0x80
	}
	return uint8(u)
}

// SortAdaptive is the kernel dispatcher used by the real execution paths:
// it sorts xs ascending choosing the cheapest applicable kernel.
//
//  1. Run detection (one linear scan): fully ascending inputs return
//     untouched and strictly descending inputs are reversed in place —
//     the same adaptivity Serial has always had, and the mechanism behind
//     the paper's reverse-ordered results.
//  2. LSD radix sort when the input is large (>= radixMinLen) and scratch
//     can hold it: O(n) per discriminating digit, allocation-free, tiled
//     scatter above radixTileMinLen.
//  3. Introsort otherwise (small inputs, or no scratch available).
//
// scratch may be nil; the dispatcher never allocates. Scratch contents on
// return are unspecified.
func SortAdaptive(xs, scratch []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	if asc, desc := scanRuns(xs); asc {
		return
	} else if desc {
		reverse(xs)
		return
	}
	if n >= radixMinLen && len(scratch) >= n {
		RadixSortScratch(xs, scratch)
		return
	}
	introsort(xs, 2*log2(n))
}
