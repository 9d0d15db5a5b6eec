package main

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"knlmlm/internal/wire"
)

func TestCheckInt64(t *testing.T) {
	j := newInt64Job(rand.New(rand.NewSource(1)), 1000)
	keys, err := wire.Decode(bytes.NewReader(j.body), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if digest(keys) != j.digest {
		t.Fatal("digest of the encoded input differs from the job's")
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	if err := checkInt64(j, sorted); err != nil {
		t.Fatalf("sorted permutation rejected: %v", err)
	}
	for name, bad := range map[string][]int64{
		"unsorted":   keys,
		"short":      sorted[1:],
		"all zero":   make([]int64, j.n),
		"duplicated": append([]int64{sorted[0]}, sorted[:j.n-1]...),
	} {
		if checkInt64(j, bad) == nil {
			t.Errorf("%s result accepted", name)
		}
	}
}

func TestCheckRecords(t *testing.T) {
	j := newRecordJob(rand.New(rand.NewSource(1)), 1000, 50)
	idx := make([]int, j.n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return int(j.keys[a] - j.keys[b]) })
	good := make([]int64, 0, 2*j.n)
	for _, i := range idx {
		good = append(good, j.keys[i], int64(i))
	}
	seen := make([]bool, j.n)
	if err := checkRecords(j, good, seen); err != nil {
		t.Fatalf("stable sorted records rejected: %v", err)
	}
	// Find two adjacent records with equal keys to swap.
	eq := -1
	for r := 1; r < j.n; r++ {
		if good[2*r] == good[2*r-2] {
			eq = r
			break
		}
	}
	if eq < 0 {
		t.Fatal("no equal keys in the test input")
	}
	unstable := slices.Clone(good)
	unstable[2*eq-1], unstable[2*eq+1] = unstable[2*eq+1], unstable[2*eq-1]
	wrongPayload := slices.Clone(good)
	wrongPayload[1], wrongPayload[3] = wrongPayload[3], wrongPayload[1]
	zero := make([]int64, 2*j.n)
	for name, bad := range map[string][]int64{
		"unstable":      unstable,
		"wrong payload": wrongPayload,
		"all zero":      zero,
		"short":         good[2:],
	} {
		if name == "wrong payload" && good[0] == good[2] {
			continue // swapping payloads of equal keys is the unstable case
		}
		if checkRecords(j, bad, seen) == nil {
			t.Errorf("%s result accepted", name)
		}
	}
}
