package psort

import (
	"math"
	"math/rand"
	"testing"

	"knlmlm/internal/race"
	"knlmlm/internal/workload"
)

func diffAgainstSerial(t *testing.T, label string, in []int64) {
	t.Helper()
	want := append([]int64(nil), in...)
	Serial(want)

	got := append([]int64(nil), in...)
	RadixSort(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: RadixSort diverges from Serial at %d: %d != %d", label, i, got[i], want[i])
		}
	}

	got2 := append([]int64(nil), in...)
	scratch := make([]int64, len(in))
	SortAdaptive(got2, scratch)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("%s: SortAdaptive diverges from Serial at %d: %d != %d", label, i, got2[i], want[i])
		}
	}
}

func TestRadixMatchesSerialAllOrders(t *testing.T) {
	for _, o := range workload.Orders() {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 4095, 4096, 100_000} {
			in := workload.Generate(o, n, 77)
			diffAgainstSerial(t, o.String(), in)
		}
	}
}

func TestRadixAdversarialPatterns(t *testing.T) {
	mk := func(n int, f func(i int) int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := map[string][]int64{
		"all-equal":      mk(5000, func(int) int64 { return 42 }),
		"all-equal-neg":  mk(5000, func(int) int64 { return -42 }),
		"sawtooth":       mk(5000, func(i int) int64 { return int64(i % 17) }),
		"neg-sawtooth":   mk(5000, func(i int) int64 { return int64(i%9) - 4 }),
		"sign-boundary":  mk(5000, func(i int) int64 { return int64(i%2)*2 - 1 }), // {-1, 1}
		"extremes":       {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MinInt64},
		"high-byte-only": mk(5000, func(i int) int64 { return int64(i%5) << 56 }),
		"low-byte-only":  mk(5000, func(i int) int64 { return int64(i % 256) }),
		"alternating-ext": mk(4096, func(i int) int64 {
			if i%2 == 0 {
				return math.MinInt64 + int64(i)
			}
			return math.MaxInt64 - int64(i)
		}),
	}
	for name, in := range cases {
		diffAgainstSerial(t, name, in)
	}
}

func TestRadixQuickCheck(t *testing.T) {
	f := func(xs []int64) bool {
		want := append([]int64(nil), xs...)
		Serial(want)
		got := append([]int64(nil), xs...)
		RadixSort(got)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	quickCheck(t, f, 4, 500)
}

func TestRadixScratchTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short scratch should panic")
		}
	}()
	RadixSortScratch([]int64{3, 1, 2}, make([]int64, 2))
}

func TestRadixIsAllocationFreeWithScratch(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	xs := workload.Generate(workload.Random, 50_000, 3)
	scratch := make([]int64, len(xs))
	allocs := testing.AllocsPerRun(5, func() {
		RadixSortScratch(xs, scratch)
	})
	if allocs != 0 {
		t.Errorf("RadixSortScratch allocates %.1f times per run", allocs)
	}
	allocs = testing.AllocsPerRun(5, func() {
		SortAdaptive(xs, scratch)
	})
	if allocs != 0 {
		t.Errorf("SortAdaptive allocates %.1f times per run", allocs)
	}
}

func TestSortAdaptiveDispatch(t *testing.T) {
	// Sorted input: untouched (run detection short-circuits radix).
	asc := []int64{1, 2, 3, 4, 5}
	SortAdaptive(asc, nil)
	if !workload.IsSorted(asc) {
		t.Error("ascending input broken")
	}
	// Strictly descending: reversed in one pass.
	desc := make([]int64, 10_000)
	for i := range desc {
		desc[i] = int64(len(desc) - i)
	}
	SortAdaptive(desc, make([]int64, len(desc)))
	if !workload.IsSorted(desc) {
		t.Error("descending input not reversed")
	}
	// No scratch: introsort fallback must still sort large inputs.
	big := workload.Generate(workload.Random, 3*radixMinLen, 5)
	orig := append([]int64(nil), big...)
	SortAdaptive(big, nil)
	checkSorted(t, "no-scratch fallback", big, orig)
	// Short scratch: also falls back rather than panicking.
	big2 := workload.Generate(workload.Random, 3*radixMinLen, 6)
	orig2 := append([]int64(nil), big2...)
	SortAdaptive(big2, make([]int64, 10))
	checkSorted(t, "short-scratch fallback", big2, orig2)
}

func FuzzRadixMatchesSerial(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 255, 0, 128, 7})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := bytesToInt64s(data)
		want := append([]int64(nil), xs...)
		Serial(want)
		got := append([]int64(nil), xs...)
		RadixSort(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("radix diverges from Serial at %d", i)
			}
		}
	})
}

// bytesToInt64s reinterprets fuzz bytes as little-endian int64 keys.
func bytesToInt64s(data []byte) []int64 {
	xs := make([]int64, 0, len(data)/8)
	for len(data) >= 8 {
		var u uint64
		for i := 0; i < 8; i++ {
			u |= uint64(data[i]) << (8 * i)
		}
		xs = append(xs, int64(u))
		data = data[8:]
	}
	return xs
}

func TestRadixLargeRandomAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	xs := make([]int64, 200_000)
	for i := range xs {
		xs[i] = int64(rng.Uint64())
	}
	diffAgainstSerial(t, "200k full-range", xs)
}
