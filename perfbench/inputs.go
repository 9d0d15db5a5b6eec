package main

import (
	"fmt"
	"math/rand"

	"knlmlm/internal/wire"
)

// job is one pre-generated, pre-encoded request. Inputs are made from
// the workload seed before anything is timed; the service sees only the
// encoded body.
type job struct {
	n      int // keys, or records for record jobs
	rec    bool
	body   []byte
	ctype  string
	digest uint64 // int64 jobs: order-independent digest of the input keys
	// keys are a record job's input keys by input position; record i
	// carries payload i, so the check can see where every record came
	// from.
	keys []int64
}

// bytes is the job's input size on the wire's cell basis (8 bytes per
// cell; a record is two cells).
func (j *job) bytes() int64 {
	if j.rec {
		return int64(j.n) * 16
	}
	return int64(j.n) * 8
}

// mix is the splitmix64 finalizer. The digest of a key multiset is the
// wrapping sum of mix over its keys: independent of order, and an
// all-zero or duplicated result of the right length does not match it.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func digest(keys []int64) uint64 {
	var d uint64
	for _, k := range keys {
		d += mix(uint64(k))
	}
	return d
}

// newInt64Job makes an int64 job of n keys uniform over the int64 range,
// encoded for the binary wire.
func newInt64Job(rng *rand.Rand, n int) *job {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64())
	}
	return &job{n: n, digest: digest(keys), body: wire.Encode(nil, keys, 0), ctype: wire.ContentType}
}

// newRecordJob makes n key+payload records: keys uniform over
// [0, keyRange) so equal keys are common, payload = input position.
func newRecordJob(rng *rand.Rand, n int, keyRange int64) *job {
	keys := make([]int64, n)
	cells := make([]int64, 2*n)
	for i := range keys {
		keys[i] = rng.Int63n(keyRange)
		cells[2*i] = keys[i]
		cells[2*i+1] = int64(i)
	}
	return &job{
		n: n, rec: true, keys: keys,
		body:  wire.EncodeKind(nil, wire.KindRecord, cells, 0),
		ctype: wire.ContentTypeFor(wire.KindRecord),
	}
}

// checkInt64 verifies that got is a sorted permutation of the job's
// input: same length, nondecreasing, same key multiset digest.
func checkInt64(j *job, got []int64) error {
	if len(got) != j.n {
		return fmt.Errorf("result has %d keys, input had %d", len(got), j.n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			return fmt.Errorf("result out of order at %d", i)
		}
	}
	if digest(got) != j.digest {
		return fmt.Errorf("result keys are not a permutation of the input")
	}
	return nil
}

// checkRecords verifies a record result exactly: every input record
// appears once with its own payload, keys are nondecreasing, and equal
// keys keep their input order (the record sort is stable). seen is
// scratch of at least n entries.
func checkRecords(j *job, cells []int64, seen []bool) error {
	if len(cells) != 2*j.n {
		return fmt.Errorf("result has %d cells, input had %d", len(cells), 2*j.n)
	}
	seen = seen[:j.n]
	clear(seen)
	for i := 0; i < j.n; i++ {
		k, p := cells[2*i], cells[2*i+1]
		if p < 0 || p >= int64(j.n) || seen[p] {
			return fmt.Errorf("record %d: payload %d missing or duplicated", i, p)
		}
		seen[p] = true
		if j.keys[p] != k {
			return fmt.Errorf("record %d: payload %d came with key %d, input key %d", i, p, k, j.keys[p])
		}
		if i > 0 {
			pk, pp := cells[2*i-2], cells[2*i-1]
			if k < pk {
				return fmt.Errorf("result out of order at record %d", i)
			}
			if k == pk && p < pp {
				return fmt.Errorf("equal keys reordered at record %d", i)
			}
		}
	}
	return nil
}
