package psort

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"knlmlm/internal/race"
)

// checkMerges runs both loser-tree drains and MergeK over the same runs
// and fails unless each matches slices.Sort of the concatenated runs.
// The sort is the oracle: the two drains share the tree's replay, so
// agreeing with each other alone would not catch a replay bug.
func checkMerges(t *testing.T, label string, runs [][]int64) {
	t.Helper()
	want := slices.Concat(runs...)
	slices.Sort(want)
	total := len(want)
	check := func(drain string, got []int64, n int) {
		t.Helper()
		if n != total {
			t.Fatalf("%s: %s wrote %d of %d", label, drain, n, total)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s diverges from the sorted input at %d: %d != %d", label, drain, i, got[i], want[i])
			}
		}
	}
	got := make([]int64, total)
	check("MergeInto", got, NewLoserTree(runs).MergeInto(got))
	got = make([]int64, total)
	check("MergeIntoBatched", got, NewLoserTree(runs).MergeIntoBatched(got))
	got = make([]int64, total)
	MergeK(got, runs...)
	check("MergeK", got, total)
}

func TestMergeIntoBatchedMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(15)
		runs := makeRuns(rng, k, 80)
		checkMerges(t, "random", runs)
	}
}

func TestMergeIntoBatchedAdversarial(t *testing.T) {
	seq := func(lo, n int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = lo + int64(i)
		}
		return out
	}
	rep := func(v int64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := map[string][][]int64{
		"empty-tree":     {},
		"all-empty-runs": {{}, {}, {}},
		"some-empty":     {{}, {5}, {}, {1, 9}, {}, {}},
		"single-run":     {seq(0, 100)},
		"all-equal":      {rep(3, 50), rep(3, 50), rep(3, 50)},
		"disjoint-long":  {seq(0, 1000), seq(1000, 1000), seq(2000, 1000)},
		"interleaved":    {{0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}},
		"negative-keys":  {seq(-500, 300), seq(-100, 300), rep(-7, 40)},
		"extremes": {
			{math.MinInt64, 0, math.MaxInt64},
			{math.MinInt64, math.MinInt64 + 1},
			{math.MaxInt64 - 1, math.MaxInt64},
		},
		"one-long-many-short": {seq(0, 5000), {2500}, {1}, {4999}},
		"sawtooth-runs": {
			{0, 0, 1, 1, 2, 2},
			{0, 1, 2},
			rep(1, 20),
		},
	}
	for name, runs := range cases {
		checkMerges(t, name, runs)
	}
}

func TestMergeIntoBatchedKPowers(t *testing.T) {
	// Non-power-of-two k exercises the padded leaves (always-empty runs).
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 5, 7, 8, 9, 16, 17, 33} {
		runs := makeRuns(rng, k, 64)
		checkMerges(t, "k-pad", runs)
	}
}

func TestMerge2MatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		runs := makeRuns(rng, 2, 400)
		a, b := runs[0], runs[1]
		want := make([]int64, len(a)+len(b))
		merge2Linear(want, a, b)
		got := make([]int64, len(a)+len(b))
		Merge2(got, a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: gallop Merge2 diverges at %d", trial, i)
			}
		}
	}
}

func TestMerge2GallopsLongStreaks(t *testing.T) {
	// Disjoint ranges: the gallop path must bulk-copy and stay correct.
	a := make([]int64, 10_000)
	b := make([]int64, 10_000)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i + len(a))
	}
	dst := make([]int64, len(a)+len(b))
	Merge2(dst, a, b)
	for i := range dst {
		if dst[i] != int64(i) {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	// And the reverse interleaving order.
	Merge2(dst[:15000], b[:5000], a)
	want := make([]int64, 0, 15000)
	want = append(want, a...)
	want = append(want, b[:5000]...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range dst[:15000] {
		if dst[i] != want[i] {
			t.Fatalf("reverse: dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestGallopBounds(t *testing.T) {
	run := []int64{1, 1, 2, 2, 2, 3, 5, 5, 9}
	cases := []struct {
		v      int64
		le, lt int
	}{
		{0, 0, 0},
		{1, 2, 0},
		{2, 5, 2},
		{3, 6, 5},
		{4, 6, 6},
		{5, 8, 6},
		{9, 9, 8},
		{10, 9, 9},
	}
	for _, c := range cases {
		if got := gallopLE(run, c.v); got != c.le {
			t.Errorf("gallopLE(%d) = %d, want %d", c.v, got, c.le)
		}
		if got := gallopLT(run, c.v); got != c.lt {
			t.Errorf("gallopLT(%d) = %d, want %d", c.v, got, c.lt)
		}
	}
	if gallopLE(nil, 5) != 0 || gallopLT(nil, 5) != 0 {
		t.Error("empty run should gallop to 0")
	}
	// Long uniform run: the exponential probe must clamp at len.
	long := make([]int64, 1000)
	if got := gallopLE(long, 0); got != 1000 {
		t.Errorf("gallopLE over uniform run = %d", got)
	}
}

func TestMergeKStillCorrectAfterBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		runs := makeRuns(rng, 1+rng.Intn(12), 60)
		all := flatten(runs)
		dst := make([]int64, len(all))
		MergeK(dst, runs...)
		checkSorted(t, "MergeK batched", dst, all)
	}
}

func TestMergeIntoBatchedAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	// The drain itself (tree already built) must not allocate.
	mk := func() *LoserTree {
		runs := make([][]int64, 8)
		for i := range runs {
			r := make([]int64, 1000)
			for j := range r {
				r[j] = int64(j*8 + i)
			}
			runs[i] = r
		}
		return NewLoserTree(runs)
	}
	dst := make([]int64, 8000)
	trees := make([]*LoserTree, 6)
	for i := range trees {
		trees[i] = mk()
	}
	next := 0
	allocs := testing.AllocsPerRun(5, func() {
		trees[next].MergeIntoBatched(dst)
		next++
	})
	if allocs != 0 {
		t.Errorf("MergeIntoBatched allocates %.1f times per drain", allocs)
	}
}

func TestMergeKAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	// Up to ltStackFanIn runs the whole tree lives on MergeK's stack.
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{3, 8, 17, ltStackFanIn} {
		runs := makeRuns(rng, k, 400)
		dst := make([]int64, len(flatten(runs)))
		if allocs := testing.AllocsPerRun(5, func() { MergeK(dst, runs...) }); allocs != 0 {
			t.Errorf("MergeK over %d runs allocates %.1f times per call", k, allocs)
		}
	}
}

func FuzzMergeBatchedMatchesPerElement(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		xs := bytesToInt64s(data)
		k := 1 + int(kRaw%16)
		// Deal elements into k runs round-robin, then sort each run.
		runs := make([][]int64, k)
		for i, v := range xs {
			runs[i%k] = append(runs[i%k], v)
		}
		for _, r := range runs {
			sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
		}
		checkMerges(t, "fuzz", runs)
	})
}

func FuzzMerge2MatchesLinear(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{}, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a := bytesToInt64s(da)
		b := bytesToInt64s(db)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		want := make([]int64, len(a)+len(b))
		merge2Linear(want, a, b)
		got := make([]int64, len(a)+len(b))
		Merge2(got, a, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gallop Merge2 diverges at %d", i)
			}
		}
	})
}
