package psort

// Differential fuzz targets for the generic key kernels, seeded from the
// conformance generator library, plus the boundary tests and allocation
// regression tests the generic kernels are pinned by.

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// ---------------------------------------------------------------------
// Fuzz targets (differential vs the stdlib reference sorts)
// ---------------------------------------------------------------------

// float64sToBytes encodes the fuzz wire format: 8 LE bytes per value.
func float64sToBytes(xs []float64) []byte {
	out := make([]byte, 0, len(xs)*8)
	for _, f := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out
}

func kvsToBytes(rs []KV) []byte {
	out := make([]byte, 0, len(rs)*16)
	for _, r := range rs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Key))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Payload))
	}
	return out
}

// stringsToBytes joins strings with a 0x00 separator; the decoder splits
// on it, so fuzz inputs cannot contain NUL inside a key — fine, since
// byte order around the separator is still fully exercised.
func stringsToBytes(ss [][]byte) []byte {
	return bytes.Join(ss, []byte{0})
}

// FuzzFloat64Sort checks SortFloat64sScratch against slices.SortFunc on
// the pinned total order, bit-for-bit — NaN payloads and zero signs
// included.
func FuzzFloat64Sort(f *testing.F) {
	for _, c := range float64Cases() {
		f.Add(float64sToBytes(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 1<<16 {
			n = 1 << 16
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		want := slices.Clone(xs)
		slices.SortFunc(want, cmpFloat64Total)
		SortFloat64sScratch(xs, make([]float64, len(xs)))
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("index %d: got %x want %x", i, math.Float64bits(xs[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// FuzzRecordSort checks SortRecordsScratch against slices.SortStableFunc
// by key: the full records — payloads included — must match, which is
// exactly the stability claim.
func FuzzRecordSort(f *testing.F) {
	for _, c := range kvCases() {
		f.Add(kvsToBytes(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n > 1<<15 {
			n = 1 << 15
		}
		rs := make([]KV, n)
		for i := range rs {
			rs[i].Key = int64(binary.LittleEndian.Uint64(data[i*16:]))
			rs[i].Payload = int64(binary.LittleEndian.Uint64(data[i*16+8:]))
		}
		want := slices.Clone(rs)
		slices.SortStableFunc(want, cmpKV)
		SortRecordsScratch(rs, make([]KV, len(rs)))
		if !slices.Equal(rs, want) {
			for i := range rs {
				if rs[i] != want[i] {
					t.Fatalf("index %d: got %v want %v", i, rs[i], want[i])
				}
			}
		}
	})
}

// FuzzStringSort checks SortByteStringsScratch against slices.SortFunc
// with bytes.Compare; elements must be content-equal at every rank.
func FuzzStringSort(f *testing.F) {
	for _, c := range stringCases() {
		f.Add(stringsToBytes(c.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			data = data[:1<<20]
		}
		ss := bytes.Split(data, []byte{0})
		want := make([][]byte, len(ss))
		copy(want, ss)
		slices.SortFunc(want, bytes.Compare)
		SortByteStringsScratch(ss, make([][]byte, len(ss)))
		for i := range ss {
			if !bytes.Equal(ss[i], want[i]) {
				t.Fatalf("index %d: got %q want %q", i, ss[i], want[i])
			}
		}
	})
}

// ---------------------------------------------------------------------
// Gallop boundary tests
// ---------------------------------------------------------------------

// TestGallopBoundaries pins gallopLE/gallopLT (and their record twins)
// on the degenerate shapes the merge tests only hit by luck: empty runs,
// single elements, all-equal runs, and probe values outside the range.
func TestGallopBoundaries(t *testing.T) {
	refLE := func(run []int64, v int64) int {
		n := 0
		for _, x := range run {
			if x <= v {
				n++
			}
		}
		return n
	}
	refLT := func(run []int64, v int64) int {
		n := 0
		for _, x := range run {
			if x < v {
				n++
			}
		}
		return n
	}
	allEqual := repeatInt64(7, 9)
	long := make([]int64, 100)
	for i := range long {
		long[i] = int64(2 * i) // evens: odd probes land between elements
	}
	cases := []struct {
		name string
		run  []int64
		v    int64
	}{
		{"empty", nil, 5},
		{"single-below", []int64{10}, 9},
		{"single-equal", []int64{10}, 10},
		{"single-above", []int64{10}, 11},
		{"all-equal-below", allEqual, 6},
		{"all-equal-at", allEqual, 7},
		{"all-equal-above", allEqual, 8},
		{"below-range", long, -1},
		{"at-first", long, 0},
		{"between", long, 33},
		{"at-last", long, 198},
		{"above-range", long, 199},
		{"min-int", long, math.MinInt64},
		{"max-int", long, math.MaxInt64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, want := gallopLE(c.run, c.v), refLE(c.run, c.v); got != want {
				t.Errorf("gallopLE(%v, %d) = %d, want %d", c.run, c.v, got, want)
			}
			if got, want := gallopLT(c.run, c.v), refLT(c.run, c.v); got != want {
				t.Errorf("gallopLT(%v, %d) = %d, want %d", c.run, c.v, got, want)
			}
			recs := make([]KV, len(c.run))
			for i, x := range c.run {
				recs[i] = KV{Key: x, Payload: int64(i)}
			}
			if got, want := recordGallopLE(recs, c.v), refLE(c.run, c.v); got != want {
				t.Errorf("recordGallopLE(%v, %d) = %d, want %d", c.run, c.v, got, want)
			}
			if got, want := recordGallopLT(recs, c.v), refLT(c.run, c.v); got != want {
				t.Errorf("recordGallopLT(%v, %d) = %d, want %d", c.run, c.v, got, want)
			}
		})
	}
}

// TestGallopExhaustive cross-checks the galloping searches against the
// linear reference over every prefix length and probe position of a run
// with duplicates — the exponential-probe overshoot boundaries (1, 3, 7,
// 15, ...) all land inside this range.
func TestGallopExhaustive(t *testing.T) {
	base := []int64{0, 0, 1, 3, 3, 3, 4, 8, 8, 9, 12, 12, 12, 12, 15, 20, 20, 21}
	for n := 0; n <= len(base); n++ {
		run := base[:n]
		for v := int64(-1); v <= 22; v++ {
			wantLE, wantLT := 0, 0
			for _, x := range run {
				if x <= v {
					wantLE++
				}
				if x < v {
					wantLT++
				}
			}
			if got := gallopLE(run, v); got != wantLE {
				t.Fatalf("gallopLE(base[:%d], %d) = %d, want %d", n, v, got, wantLE)
			}
			if got := gallopLT(run, v); got != wantLT {
				t.Fatalf("gallopLT(base[:%d], %d) = %d, want %d", n, v, got, wantLT)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Allocation regression tests
// ---------------------------------------------------------------------

// caseByName pulls one generator case out of the conformance library.
func caseByName[E any](t *testing.T, cases []genCase[E], name string) []E {
	t.Helper()
	for _, c := range cases {
		if c.name == name {
			return c.data
		}
	}
	t.Fatalf("no generator case named %q", name)
	return nil
}

// TestGenericKernelsZeroAlloc pins the steady-state allocation behaviour
// of the generic kernels at zero, matching the int64 pooled-path
// guarantees: with scratch provided, sorting and merging allocate
// nothing, so service hot paths can run them per job without GC traffic.
func TestGenericKernelsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow at these sizes")
	}
	const n = 4096

	floats := caseByName(t, float64Cases(), "random-with-specials")[:n]
	fwork := make([]float64, n)
	fscratch := make([]float64, n)
	if a := testing.AllocsPerRun(10, func() {
		copy(fwork, floats)
		SortFloat64sScratch(fwork, fscratch)
	}); a != 0 {
		t.Errorf("SortFloat64sScratch allocates %v per run, want 0", a)
	}

	recs := caseByName(t, kvCases(), "random")[:n]
	rwork := make([]KV, n)
	rscratch := make([]KV, n)
	if a := testing.AllocsPerRun(10, func() {
		copy(rwork, recs)
		SortRecordsScratch(rwork, rscratch)
	}); a != 0 {
		t.Errorf("SortRecordsScratch allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		copy(rwork, recs)
		recordRadix(rwork, rscratch, true) // forced tiled scatter
	}); a != 0 {
		t.Errorf("recordRadix(tiled) allocates %v per run, want 0", a)
	}

	strs := caseByName(t, stringCases(), "random-short")
	swork := make([][]byte, len(strs))
	sscratch := make([][]byte, len(strs))
	if a := testing.AllocsPerRun(10, func() {
		copy(swork, strs)
		SortByteStringsScratch(swork, sscratch)
	}); a != 0 {
		t.Errorf("SortByteStringsScratch allocates %v per run, want 0", a)
	}

	// Record merges: two-way into a preallocated destination, and the
	// loser tree reused via Reset — the shape of mlmsort's merge loops.
	a1 := slices.Clone(recs[:n/2])
	b1 := slices.Clone(recs[n/2:])
	slices.SortStableFunc(a1, cmpKV)
	slices.SortStableFunc(b1, cmpKV)
	dst := make([]KV, n)
	if a := testing.AllocsPerRun(10, func() {
		MergeRecords2(dst, a1, b1)
	}); a != 0 {
		t.Errorf("MergeRecords2 allocates %v per run, want 0", a)
	}

	runs := make([][]KV, 4)
	for i := range runs {
		runs[i] = slices.Clone(recs[i*n/4 : (i+1)*n/4])
		slices.SortStableFunc(runs[i], cmpKV)
	}
	lt := NewRecordLoserTree(runs)
	lt.MergeInto(dst)
	if a := testing.AllocsPerRun(10, func() {
		lt.Reset(runs)
		lt.MergeInto(dst)
	}); a != 0 {
		t.Errorf("RecordLoserTree Reset+MergeInto allocates %v per run, want 0", a)
	}

	// The int64 tiled scatter inherits the radix path's zero-alloc
	// guarantee: the stage array lives on the stack.
	ints := caseByName(t, int64Cases(), "random-large")[:n]
	iwork := make([]int64, n)
	iscratch := make([]int64, n)
	if a := testing.AllocsPerRun(10, func() {
		copy(iwork, ints)
		radixSortScratch(iwork, iscratch, true)
	}); a != 0 {
		t.Errorf("radixSortScratch(tiled) allocates %v per run, want 0", a)
	}
}
