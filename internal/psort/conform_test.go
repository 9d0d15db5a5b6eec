package psort

// Kernel-conformance harness: one table-driven engine that runs every
// sort and merge kernel in the package — old int64 paths and the generic
// key kernels alike — against a reference sort.Slice/slices.SortFunc
// path over a shared library of adversarial generators, asserting
// stability where the kernel claims it. The generator library doubles as
// the seed corpus for the differential fuzz targets (conformCorpus*),
// and TestConformanceCoversExportedAPI walks the package's exported
// functions with go/parser and fails if any kernel is not registered
// here — adding a kernel without wiring it into the harness is a test
// failure, not a review nit.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------
// Adversarial generator library
// ---------------------------------------------------------------------

// genCase is one adversarial input in the conformance library.
type genCase[E any] struct {
	name string
	data []E
}

// int64Cases covers the integer kernels: radix crossovers (2047/2048),
// digit-skip shapes (all-equal, sawtooth, few-unique), sign boundaries,
// and plain randomness at a size that exercises several digits.
// repeatInt64 builds an all-equal slice (slices.Repeat needs go1.23;
// the module directive is 1.22).
func repeatInt64(v int64, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func int64Cases() []genCase[int64] {
	rng := rand.New(rand.NewSource(101))
	random := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63() - rng.Int63()
		}
		return xs
	}
	sawtooth := make([]int64, 4096)
	for i := range sawtooth {
		sawtooth[i] = int64(i % 17)
	}
	fewUnique := make([]int64, 4096)
	for i := range fewUnique {
		fewUnique[i] = []int64{-3, 0, 1 << 40, -1 << 40, 7}[rng.Intn(5)]
	}
	organ := make([]int64, 3000)
	for i := range organ {
		if i < 1500 {
			organ[i] = int64(i)
		} else {
			organ[i] = int64(3000 - i)
		}
	}
	sorted := random(2500)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	extremes := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	return []genCase[int64]{
		{"empty", nil},
		{"single", []int64{42}},
		{"two-swapped", []int64{5, -5}},
		{"all-equal", repeatInt64(-77, 3000)},
		{"sawtooth", sawtooth},
		{"few-unique", fewUnique},
		{"organ-pipe", organ},
		{"sorted", sorted},
		{"reversed", reversed},
		{"extremes", extremes},
		{"random-below-radix", random(radixMinLen - 1)},
		{"random-at-radix", random(radixMinLen)},
		{"random-large", random(20000)},
	}
}

// float64Specials are the values whose placement the float64 total order
// pins: signed zeros, infinities, and NaNs of both signs with distinct
// payloads (the order is a bijection on bits, so payloads must round-trip).
func float64Specials() []float64 {
	return []float64{
		math.NaN(),
		-math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // +NaN, low payload
		math.Float64frombits(0xfff8000000abcdef), // -NaN, distinct payload
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // denormals
		1.5, -1.5, math.Pi, -math.Pi,
	}
}

func float64Cases() []genCase[float64] {
	rng := rand.New(rand.NewSource(202))
	specials := float64Specials()
	randomFinite := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return xs
	}
	mixed := randomFinite(4096)
	for i := 0; i < len(mixed); i += 10 {
		mixed[i] = specials[rng.Intn(len(specials))]
	}
	allNaN := make([]float64, 600)
	for i := range allNaN {
		// Distinct payloads, both signs: orderable only by the total order.
		allNaN[i] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63())&0x7ffff | uint64(rng.Intn(2))<<63)
	}
	zeros := make([]float64, 500)
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(1-2*(i%2)))
	}
	return []genCase[float64]{
		{"empty", nil},
		{"single-nan", []float64{math.NaN()}},
		{"specials", specials},
		{"all-nan-mixed-sign", allNaN},
		{"signed-zeros", zeros},
		{"random-finite-small", randomFinite(300)},
		{"random-with-specials", mixed},
		{"random-finite-large", randomFinite(8192)},
	}
}

// kvCases sets every payload to the record's original index, which is
// what lets the engine assert stability exactly: the stable reference
// and a stable kernel must agree on payloads, not just keys.
func kvCases() []genCase[KV] {
	rng := rand.New(rand.NewSource(303))
	withIdx := func(keys []int64) []KV {
		rs := make([]KV, len(keys))
		for i, k := range keys {
			rs[i] = KV{Key: k, Payload: int64(i)}
		}
		return rs
	}
	dupHeavy := make([]int64, 6000)
	for i := range dupHeavy {
		dupHeavy[i] = int64(rng.Intn(16)) // ~375 records per key: stability stress
	}
	random := make([]int64, 8192)
	for i := range random {
		random[i] = rng.Int63() - rng.Int63()
	}
	sorted := slices.Clone(random[:2000])
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return []genCase[KV]{
		{"empty", nil},
		{"single", withIdx([]int64{9})},
		{"all-equal", withIdx(make([]int64, 4000))},
		{"dup-heavy", withIdx(dupHeavy)},
		{"below-insertion-cut", withIdx(dupHeavy[:recRadixMinLen-1])},
		{"at-radix-cut", withIdx(dupHeavy[:recRadixMinLen])},
		{"sorted", withIdx(sorted)},
		{"reversed", withIdx(reversed)},
		{"random", withIdx(random)},
	}
}

func stringCases() []genCase[[]byte] {
	rng := rand.New(rand.NewSource(404))
	randomStrings := func(n, maxLen int) [][]byte {
		ss := make([][]byte, n)
		for i := range ss {
			s := make([]byte, rng.Intn(maxLen+1))
			rng.Read(s)
			ss[i] = s
		}
		return ss
	}
	sharedPrefix := make([][]byte, 3000)
	prefix := bytes.Repeat([]byte("knl-mcdram-"), 8) // 88-byte common prefix
	for i := range sharedPrefix {
		sharedPrefix[i] = append(slices.Clone(prefix), []byte(fmt.Sprintf("%06d", rng.Intn(2000)))...)
	}
	nested := [][]byte{nil, []byte(""), []byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("ab"), []byte("a"), []byte("b")}
	dupHeavy := make([][]byte, 4000)
	for i := range dupHeavy {
		dupHeavy[i] = []byte(fmt.Sprintf("key-%02d", rng.Intn(12)))
	}
	return []genCase[[]byte]{
		{"empty", nil},
		{"single", [][]byte{[]byte("x")}},
		{"all-empty-strings", make([][]byte, 200)},
		{"prefix-nesting", nested},
		{"shared-prefix", sharedPrefix},
		{"dup-heavy", dupHeavy},
		{"random-short", randomStrings(2500, 12)},
		{"random-long", randomStrings(1500, 200)},
	}
}

// ---------------------------------------------------------------------
// Conformance engine
// ---------------------------------------------------------------------

// sortKernel registers one sort entry point. covers lists the exported
// psort identifiers this entry certifies for the API meta-test; internal
// differential entries (forced code paths) leave it empty.
type sortKernel[E any] struct {
	name   string
	covers []string
	stable bool
	run    func(xs []E)
}

// mergeKernel registers one k-way merge entry point; arity 0 accepts any
// run count, arity 2 restricts the engine to two-run inputs.
type mergeKernel[E any] struct {
	name   string
	covers []string
	arity  int
	run    func(dst []E, runs [][]E)
}

// runSortConformance checks every kernel against the stable reference
// sort on every generator case. cmp must be a total order on the element
// *representation* (bit-level for floats, byte-level for strings), which
// makes the reference permutation content-unique: an unstable kernel
// must still produce an element comparing equal at every rank, and a
// stable kernel must reproduce the reference exactly (eq is identity
// including payloads).
func runSortConformance[E any](t *testing.T, kernels []sortKernel[E], cases []genCase[E], cmp func(a, b E) int, eq func(a, b E) bool) {
	t.Helper()
	for _, k := range kernels {
		for _, c := range cases {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				got := slices.Clone(c.data)
				want := slices.Clone(c.data)
				slices.SortStableFunc(want, cmp)
				k.run(got)
				if len(got) != len(want) {
					t.Fatalf("length changed: got %d want %d", len(got), len(want))
				}
				for i := range got {
					if k.stable {
						if !eq(got[i], want[i]) {
							t.Fatalf("index %d: got %v want %v (stable kernel must match stable reference exactly)", i, got[i], want[i])
						}
					} else if cmp(got[i], want[i]) != 0 {
						t.Fatalf("index %d: got %v want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// chunkRuns splits data into k sorted runs (contiguous chunks, each
// stable-sorted), the shape every merge kernel consumes.
func chunkRuns[E any](data []E, k int, cmp func(a, b E) int) [][]E {
	runs := make([][]E, 0, k)
	n := len(data)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		run := slices.Clone(data[lo:hi])
		slices.SortStableFunc(run, cmp)
		runs = append(runs, run)
	}
	return runs
}

// runMergeConformance checks every merge kernel against the stable
// reference: the stable sort of the concatenated sorted runs, which for
// equal keys is exactly run-index-then-position order — the stability
// contract every merge in this package claims.
func runMergeConformance[E any](t *testing.T, kernels []mergeKernel[E], cases []genCase[E], cmp func(a, b E) int, eq func(a, b E) bool) {
	t.Helper()
	for _, k := range kernels {
		fanIns := []int{1, 2, 3, 5, 8}
		if k.arity == 2 {
			fanIns = []int{2}
		}
		for _, c := range cases {
			for _, fan := range fanIns {
				t.Run(fmt.Sprintf("%s/%s/k=%d", k.name, c.name, fan), func(t *testing.T) {
					runs := chunkRuns(c.data, fan, cmp)
					want := slices.Concat(runs...)
					slices.SortStableFunc(want, cmp)
					dst := make([]E, len(want))
					k.run(dst, runs)
					for i := range dst {
						if !eq(dst[i], want[i]) {
							t.Fatalf("index %d: got %v want %v", i, dst[i], want[i])
						}
					}
				})
			}
		}
	}
}

// ---------------------------------------------------------------------
// Element orders
// ---------------------------------------------------------------------

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat64Total is the reference total order: unsigned order of the
// keys.go sort key, total on bit patterns.
func cmpFloat64Total(a, b float64) int {
	ka, kb := Float64SortKey(a), Float64SortKey(b)
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	default:
		return 0
	}
}

func cmpKV(a, b KV) int { return cmpInt64(a.Key, b.Key) }

func eqInt64(a, b int64) bool { return a == b }
func eqFloat64Bits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
func eqKV(a, b KV) bool        { return a == b }
func eqBytes(a, b []byte) bool { return bytes.Equal(a, b) }

// ---------------------------------------------------------------------
// Kernel registries
// ---------------------------------------------------------------------

func int64SortKernels() []sortKernel[int64] {
	return []sortKernel[int64]{
		{name: "Serial", covers: []string{"Serial"}, run: Serial},
		{name: "Parallel", covers: []string{"Parallel"}, run: func(xs []int64) { Parallel(xs, 4) }},
		{name: "RadixSort", covers: []string{"RadixSort"}, run: RadixSort},
		{name: "RadixSortScratch", covers: []string{"RadixSortScratch"}, run: func(xs []int64) { RadixSortScratch(xs, make([]int64, len(xs))) }},
		{name: "RadixSortScratchUntiled", covers: []string{"RadixSortScratchUntiled"}, run: func(xs []int64) { RadixSortScratchUntiled(xs, make([]int64, len(xs))) }},
		{name: "SortAdaptive", covers: []string{"SortAdaptive"}, run: func(xs []int64) { SortAdaptive(xs, make([]int64, len(xs))) }},
		{name: "SortAdaptive-nil-scratch", run: func(xs []int64) { SortAdaptive(xs, nil) }},
		// Forced tiled scatter at small sizes: the production dispatch only
		// tiles above radixTileMinLen, far too big for a test matrix.
		{name: "radix-forced-tiled", run: func(xs []int64) { radixSortScratch(xs, make([]int64, len(xs)), true) }},
	}
}

func int64MergeKernels() []mergeKernel[int64] {
	return []mergeKernel[int64]{
		{name: "Merge2", covers: []string{"Merge2"}, arity: 2, run: func(dst []int64, runs [][]int64) { Merge2(dst, runs[0], runs[1]) }},
		{name: "MergeK", covers: []string{"MergeK"}, run: func(dst []int64, runs [][]int64) { MergeK(dst, runs...) }},
		{name: "ParallelMergeK", covers: []string{"ParallelMergeK"}, run: func(dst []int64, runs [][]int64) { ParallelMergeK(dst, runs, 4) }},
		{name: "LoserTree.MergeInto", covers: []string{"NewLoserTree"}, run: func(dst []int64, runs [][]int64) { NewLoserTree(runs).MergeInto(dst) }},
		{name: "LoserTree.MergeIntoBatched", run: func(dst []int64, runs [][]int64) { NewLoserTree(runs).MergeIntoBatched(dst) }},
	}
}

func float64SortKernels() []sortKernel[float64] {
	return []sortKernel[float64]{
		{name: "SortFloat64s", covers: []string{"SortFloat64s"}, run: SortFloat64s},
		{name: "SortFloat64sScratch", covers: []string{"SortFloat64sScratch"}, run: func(xs []float64) { SortFloat64sScratch(xs, make([]float64, len(xs))) }},
		{name: "SortFloat64sScratch-nil", run: func(xs []float64) { SortFloat64sScratch(xs, nil) }},
	}
}

func recordSortKernels() []sortKernel[KV] {
	return []sortKernel[KV]{
		{name: "SortRecords", covers: []string{"SortRecords"}, stable: true, run: SortRecords[int64]},
		{name: "SortRecordsScratch", covers: []string{"SortRecordsScratch"}, stable: true, run: func(rs []KV) { SortRecordsScratch(rs, make([]KV, len(rs))) }},
		{name: "record-radix-forced-tiled", stable: true, run: func(rs []KV) {
			if len(rs) < 2 {
				return
			}
			recordRadix(rs, make([]KV, len(rs)), true)
		}},
		{name: "record-binary-insertion", stable: true, run: binaryInsertionRecords[int64]},
	}
}

func recordMergeKernels() []mergeKernel[KV] {
	return []mergeKernel[KV]{
		{name: "MergeRecords2", covers: []string{"MergeRecords2"}, arity: 2, run: func(dst []KV, runs [][]KV) { MergeRecords2(dst, runs[0], runs[1]) }},
		{name: "MergeRecordsK", covers: []string{"MergeRecordsK"}, run: func(dst []KV, runs [][]KV) { MergeRecordsK(dst, runs...) }},
		{name: "RecordLoserTree.MergeInto", covers: []string{"NewRecordLoserTree"}, run: func(dst []KV, runs [][]KV) { NewRecordLoserTree(runs).MergeInto(dst) }},
		// Reset path: drain a throwaway merge first, then Reset onto the
		// real runs — output must be identical to a fresh tree's.
		{name: "RecordLoserTree.Reset-reuse", run: func(dst []KV, runs [][]KV) {
			lt := NewRecordLoserTree([][]KV{{{Key: 1}}, {{Key: 0}}})
			lt.MergeInto(make([]KV, 2))
			lt.Reset(runs)
			lt.MergeInto(dst)
		}},
	}
}

func stringSortKernels() []sortKernel[[]byte] {
	return []sortKernel[[]byte]{
		{name: "SortByteStrings", covers: []string{"SortByteStrings"}, run: SortByteStrings},
		{name: "SortByteStringsScratch", covers: []string{"SortByteStringsScratch"}, run: func(ss [][]byte) { SortByteStringsScratch(ss, make([][]byte, len(ss))) }},
		{name: "SortByteStringsScratch-nil", run: func(ss [][]byte) { SortByteStringsScratch(ss, nil) }},
		{name: "msd-forced-tiled", run: func(ss [][]byte) {
			if len(ss) < 2 {
				return
			}
			msdRadix(ss, make([][]byte, len(ss)), 0, 2)
		}},
		{name: "multikey-quicksort-direct", run: func(ss [][]byte) { multikeyQuicksort(ss, 0) }},
	}
}

// ---------------------------------------------------------------------
// The conformance tests
// ---------------------------------------------------------------------

func TestConformInt64Sorts(t *testing.T) {
	runSortConformance(t, int64SortKernels(), int64Cases(), cmpInt64, eqInt64)
}

func TestConformInt64Merges(t *testing.T) {
	runMergeConformance(t, int64MergeKernels(), int64Cases(), cmpInt64, eqInt64)
}

// int64MergeShapes builds k sorted runs of one named shape. The shapes
// target the int64 loser tree's sentinel design: exhausted runs read as
// math.MaxInt64, so live MaxInt64 keys must tie them without losing or
// duplicating an element, and the drain must stop at the exact count.
func int64MergeShapes(rng *rand.Rand, shape string, k int) [][]int64 {
	runs := make([][]int64, k)
	sortedRandom := func(n int) []int64 {
		r := make([]int64, n)
		for i := range r {
			r[i] = int64(rng.Uint64())
		}
		slices.Sort(r)
		return r
	}
	for i := range runs {
		switch shape {
		case "extremes-beside-exhausted":
			// Short runs exhaust first; long ones end in a MaxInt64 tail
			// that has to merge against the sentinels.
			switch i % 4 {
			case 0:
				runs[i] = []int64{math.MinInt64, math.MinInt64, -1, 0, math.MaxInt64, math.MaxInt64}
			case 1:
				runs[i] = nil
			case 2:
				runs[i] = []int64{math.MinInt64}
			case 3:
				runs[i] = append(sortedRandom(30+i), math.MaxInt64, math.MaxInt64, math.MaxInt64)
			}
		case "maxint-only":
			runs[i] = repeatInt64(math.MaxInt64, i%3*20)
		case "empty":
			runs[i] = nil
		case "some-empty":
			if i%2 == 0 {
				runs[i] = sortedRandom(1 + rng.Intn(40))
			}
		case "random":
			runs[i] = sortedRandom(rng.Intn(200))
		case "one-long":
			n := 50
			if i == k/2 {
				n *= 100
			}
			runs[i] = sortedRandom(n)
		case "all-equal":
			runs[i] = repeatInt64(-5, 64)
		case "blocky":
			// Contiguous blocks dealt round-robin: the galloping path.
			for b := 0; b < 6; b++ {
				base := int64((b*k + i) * 100)
				for j := int64(0); j < 100; j++ {
					runs[i] = append(runs[i], base+j)
				}
			}
		default:
			panic("unknown merge shape " + shape)
		}
	}
	return runs
}

// TestConformInt64MergeShapes runs every int64 merge kernel over the
// sentinel-targeted shapes at every fan-in from 1 to 17 (so each
// power-of-two padding of the tree is exercised) and at the edges of
// MergeK's stack-resident tree (64 and 65 runs), against slices.Sort of
// the concatenated runs.
func TestConformInt64MergeShapes(t *testing.T) {
	shapes := []string{"extremes-beside-exhausted", "maxint-only", "empty", "some-empty", "random", "one-long", "all-equal", "blocky"}
	fanIns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 65}
	for _, kern := range int64MergeKernels() {
		for _, shape := range shapes {
			for _, k := range fanIns {
				if kern.arity != 0 && kern.arity != k {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/k=%d", kern.name, shape, k), func(t *testing.T) {
					runs := int64MergeShapes(rand.New(rand.NewSource(int64(k))), shape, k)
					want := slices.Concat(runs...)
					slices.Sort(want)
					dst := make([]int64, len(want))
					kern.run(dst, runs)
					for i := range dst {
						if dst[i] != want[i] {
							t.Fatalf("index %d of %d: got %d want %d", i, len(want), dst[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestConformFloat64Sorts(t *testing.T) {
	runSortConformance(t, float64SortKernels(), float64Cases(), cmpFloat64Total, eqFloat64Bits)
}

func TestConformRecordSorts(t *testing.T) {
	runSortConformance(t, recordSortKernels(), kvCases(), cmpKV, eqKV)
}

func TestConformRecordMerges(t *testing.T) {
	runMergeConformance(t, recordMergeKernels(), kvCases(), cmpKV, eqKV)
}

func TestConformStringSorts(t *testing.T) {
	runSortConformance(t, stringSortKernels(), stringCases(), bytes.Compare, eqBytes)
}

// TestConformSelect certifies the multisequence selector: for every case
// and rank, the returned split has exactly r elements on the left and
// max(left) <= min(right).
func TestConformSelect(t *testing.T) {
	for _, c := range int64Cases() {
		for _, fan := range []int{1, 3, 6} {
			runs := chunkRuns(c.data, fan, cmpInt64)
			total := len(c.data)
			for _, r := range []int{0, total / 3, total / 2, total} {
				cut := Select(runs, r)
				got := 0
				lmax, rmin := int64(math.MinInt64), int64(math.MaxInt64)
				for i, run := range runs {
					got += cut[i]
					if cut[i] > 0 && run[cut[i]-1] > lmax {
						lmax = run[cut[i]-1]
					}
					if cut[i] < len(run) && run[cut[i]] < rmin {
						rmin = run[cut[i]]
					}
				}
				if got != r {
					t.Fatalf("%s k=%d r=%d: split has %d elements", c.name, fan, r, got)
				}
				if r > 0 && r < total && lmax > rmin {
					t.Fatalf("%s k=%d r=%d: left max %d > right min %d", c.name, fan, r, lmax, rmin)
				}
			}
		}
	}
}

// TestConformFloat64KeyTransforms certifies the float64 key bijection:
// round-trip identity on bits, agreement between the uint64 and int64
// domains, and monotonicity against the pinned total order.
func TestConformFloat64KeyTransforms(t *testing.T) {
	vals := append(float64Specials(), float64Cases()[6].data...)
	for _, f := range vals {
		bits := math.Float64bits(f)
		if got := math.Float64bits(Float64FromSortKey(Float64SortKey(f))); got != bits {
			t.Fatalf("Float64FromSortKey round-trip: %x -> %x", bits, got)
		}
		if got := f64BitsFromSortable(sortableFromF64Bits(int64(bits))); got != int64(bits) {
			t.Fatalf("sortable round-trip: %x -> %x", bits, got)
		}
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, b := vals[i], vals[j]
			wantLess := Float64TotalLess(a, b)
			ka := sortableFromF64Bits(int64(math.Float64bits(a)))
			kb := sortableFromF64Bits(int64(math.Float64bits(b)))
			if (ka < kb) != wantLess {
				t.Fatalf("int64-domain order disagrees for %v vs %v", a, b)
			}
		}
	}
	// Slice transforms are the elementwise maps and mutually inverse.
	bits := make([]int64, len(vals))
	for i, f := range vals {
		bits[i] = int64(math.Float64bits(f))
	}
	mapped := slices.Clone(bits)
	SortableFromFloat64Bits(mapped)
	for i := range mapped {
		if mapped[i] != sortableFromF64Bits(bits[i]) {
			t.Fatalf("SortableFromFloat64Bits[%d] mismatch", i)
		}
	}
	Float64BitsFromSortable(mapped)
	if !slices.Equal(mapped, bits) {
		t.Fatal("Float64BitsFromSortable did not invert SortableFromFloat64Bits")
	}
	// The pinned placement: one element of each class, sorted.
	order := []float64{
		math.Float64frombits(0xfff8000000000001), // -NaN
		math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1.5, math.MaxFloat64, math.Inf(1),
		math.NaN(), // +NaN
	}
	for i := 1; i < len(order); i++ {
		if !Float64TotalLess(order[i-1], order[i]) {
			t.Fatalf("pinned placement violated at %d: %v !< %v", i-1, order[i-1], order[i])
		}
	}
}

// TestConformKVViews certifies the record reinterpret views.
func TestConformKVViews(t *testing.T) {
	xs := []int64{1, 10, 2, 20, 3, 30}
	rs := KVsFromInt64s(xs)
	want := []KV{{1, 10}, {2, 20}, {3, 30}}
	if !slices.Equal(rs, want) {
		t.Fatalf("KVsFromInt64s: got %v", rs)
	}
	rs[1] = KV{Key: -2, Payload: -20}
	if xs[2] != -2 || xs[3] != -20 {
		t.Fatal("KV view is not aliasing the int64 backing")
	}
	back := Int64sFromKVs(rs)
	if &back[0] != &xs[0] || len(back) != len(xs) {
		t.Fatal("Int64sFromKVs did not return the original backing")
	}
	if KVsFromInt64s(nil) != nil || Int64sFromKVs(nil) != nil {
		t.Fatal("empty views must be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("KVsFromInt64s on odd length must panic")
		}
	}()
	KVsFromInt64s([]int64{1, 2, 3})
}

// ---------------------------------------------------------------------
// API meta-test
// ---------------------------------------------------------------------

// conformanceCovered is the set of exported functions certified by the
// registries above plus the dedicated conformance tests in this file.
func conformanceCovered() map[string]bool {
	covered := map[string]bool{
		// Dedicated conformance tests in this file:
		"Select":                  true, // TestConformSelect
		"Float64SortKey":          true, // TestConformFloat64KeyTransforms
		"Float64FromSortKey":      true,
		"Float64TotalLess":        true,
		"SortableFromFloat64Bits": true,
		"Float64BitsFromSortable": true,
		"KVsFromInt64s":           true, // TestConformKVViews
		"Int64sFromKVs":           true,
	}
	for _, k := range int64SortKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range int64MergeKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range float64SortKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range recordSortKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range recordMergeKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	for _, k := range stringSortKernels() {
		for _, c := range k.covers {
			covered[c] = true
		}
	}
	return covered
}

// TestConformanceCoversExportedAPI parses the package source and fails
// if any exported function is not certified by the conformance harness.
// Adding a kernel to psort's API without registering it here is a test
// failure by construction. It also fails on stale covers entries, so the
// registry cannot drift from the real API after a rename.
func TestConformanceCoversExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse package: %v", err)
	}
	exported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue
				}
				exported[fn.Name.Name] = true
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("parsed no exported functions; harness is looking at the wrong directory")
	}
	covered := conformanceCovered()
	var missing []string
	for name := range exported {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		t.Fatalf("exported kernels not registered in the conformance harness: %v\n"+
			"register each in the kernel tables in conform_test.go (or add a dedicated TestConform* and list it in conformanceCovered)", missing)
	}
	var stale []string
	for name := range covered {
		if !exported[name] {
			stale = append(stale, name)
		}
	}
	if len(stale) > 0 {
		slices.Sort(stale)
		t.Fatalf("conformance registry names functions that no longer exist: %v", stale)
	}
}
