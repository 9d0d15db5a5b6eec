package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"knlmlm/internal/mlmsort"
	"knlmlm/internal/psort"
	"knlmlm/internal/spill"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/tune"
	"knlmlm/internal/wire"
	"knlmlm/perfbench/kernels"
)

// Layer replay shapes beyond the int64 kernels' (kernels.BulkKeys and
// friends), taken from the workloads' own configuration.
const (
	// spill-rec: 2Mi records (4Mi cells) spill as runs of half the
	// budget-derived megachunk, 256Ki cells = 128Ki records: 16 runs.
	// The traced run checks the run count against the server's.
	recRecords   = 2 << 20
	recRunCells  = 256 << 10
	recRuns      = 2 * recRecords / recRunCells
	recKeyRange  = 1 << 20
	diskProbeLen = 16 << 20
)

// timeCalls runs f calls times, recording each call as a span, and
// returns the per-call durations.
func timeCalls(tr *tracer, layer, name string, calls int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, calls)
	for range calls {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		tr.add(0, 0, layer, name, t0, d, nil)
		out = append(out, d)
	}
	return out, nil
}

func medianRate(bytes int64, ds []time.Duration) float64 {
	rates := make([]float64, len(ds))
	for i, d := range ds {
		rates[i] = float64(bytes) / 1e6 / d.Seconds()
	}
	return median(rates)
}

func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return median(s)
}

// layerReplays times calls into each layer's public functions at the
// workloads' input shapes and adds the psort, exec, mlmsort, tune, wire
// and spill layer metrics to rep.
func layerReplays(e *env, rng *rand.Rand, tr *tracer, rep *report) error {
	on := func(metric string, start time.Time, d time.Duration) { tr.add(0, 0, "psort", metric, start, d, nil) }
	k := kernels.Int64(rng, on)
	rep.add("psort", "psort.radix_i64_mb_s", "MB/s", k.RadixMBs)
	rep.add("psort", "psort.sort_small_ns_per_key", "ns/key", k.SortSmallNsPerKey)
	rep.add("psort", "psort.mergek_i64_mb_s", "MB/s", k.MergeKMBs)
	rep.add("psort", "psort.parallel_mergek_i64_mb_s", "MB/s", k.ParallelMergeKMBs)

	// Record kernels at spill-rec's run shape.
	recSrc := recordCells(rng, recRunCells/2)
	rs := make([]psort.KV, recRunCells/2)
	scratch := make([]psort.KV, len(rs))
	ds, err := timeCalls(tr, "psort", "psort.radix_rec_mb_s", kernels.Calls, func() error {
		copy(rs, psort.KVsFromInt64s(recSrc))
		psort.SortRecordsScratch(rs, scratch)
		return nil
	})
	if err != nil {
		return err
	}
	rep.add("psort", "psort.radix_rec_mb_s", "MB/s", medianRate(int64(len(rs))*16, ds))
	runs := make([][]psort.KV, recRuns)
	for i := range runs {
		runs[i] = psort.KVsFromInt64s(recordCells(rng, recRunCells/2))
		psort.SortRecords(runs[i])
	}
	dst := make([]psort.KV, recRecords)
	ds, _ = timeCalls(tr, "psort", "psort.mergek_rec_mb_s", kernels.Sweeps, func() error {
		psort.MergeRecordsK(dst, runs...)
		return nil
	})
	rep.add("psort", "psort.mergek_rec_mb_s", "MB/s", medianRate(recRecords*16, ds))

	if err := execAndMlmsort(e, rng, tr, rep); err != nil {
		return err
	}
	if err := tuneDisk(e, tr, rep); err != nil {
		return err
	}
	wireCodec(rng, kernels.SmallJobSizes(rng), tr, rep)
	return spillStore(e, rng, tr, rep)
}

// recordCells makes n key+payload records as interleaved cells.
func recordCells(rng *rand.Rand, n int) []int64 {
	cells := make([]int64, 2*n)
	for i := 0; i < n; i++ {
		cells[2*i] = rng.Int63n(recKeyRange)
		cells[2*i+1] = int64(i)
	}
	return cells
}

// execAndMlmsort replays bulk-i64's job through mlmsort.RunReal and
// RunRealObserved (telemetry.Analyze gives the exec stage split), and
// spill-rec's job through SpillSorted then MergeSpilled.
func execAndMlmsort(e *env, rng *rand.Rand, tr *tracer, rep *report) error {
	src := kernels.RandomKeys(rng, kernels.BulkKeys)
	xs := make([]int64, kernels.BulkKeys)
	prep := func() { copy(xs, src) }
	// The first run of a 4Mi job is much slower than steady state; run
	// one untimed.
	prep()
	if err := mlmsort.RunReal(mlmsort.MLMSort, xs, kernels.JobThreads, kernels.BulkMegachunk); err != nil {
		return err
	}
	var ds []time.Duration
	for range kernels.Sweeps {
		prep()
		t0 := time.Now()
		if err := mlmsort.RunReal(mlmsort.MLMSort, xs, kernels.JobThreads, kernels.BulkMegachunk); err != nil {
			return err
		}
		d := time.Since(t0)
		tr.add(0, 0, "mlmsort", "mlmsort.RunReal", t0, d, map[string]any{"keys": kernels.BulkKeys})
		ds = append(ds, d)
		if !slices.IsSorted(xs) {
			return errors.New("mlmsort.RunReal left the job unsorted")
		}
	}
	rep.add("mlmsort", "mlmsort.runreal_mb_s", "MB/s", medianRate(kernels.BulkKeys*8, ds))

	var copyS, compS, overlap, pipe []float64
	for range 3 {
		prep()
		rec := telemetry.NewRecorder()
		t0 := time.Now()
		if err := mlmsort.RunRealObserved(mlmsort.MLMSort, xs, kernels.JobThreads, kernels.BulkMegachunk, rec); err != nil {
			return err
		}
		parent := tr.add(0, 0, "mlmsort", "mlmsort.RunRealObserved", t0, time.Since(t0), nil)
		for _, s := range rec.Spans() {
			tr.add(parent, 0, "exec", s.Stage.String(), rec.Epoch().Add(s.Start), s.Dur, map[string]any{"chunk": s.Chunk})
		}
		a := telemetry.Analyze(rec.Spans())
		copyS = append(copyS, a.TCopy.Seconds())
		compS = append(compS, a.TComp.Seconds())
		overlap = append(overlap, a.OverlapEfficiency)
		pipe = append(pipe, a.PipelineEfficiency)
	}
	rep.add("exec", "exec.copy_s", "s", median(copyS))
	rep.add("exec", "exec.compute_s", "s", median(compS))
	rep.add("exec", "exec.overlap_eff", "ratio", median(overlap))
	rep.add("exec", "exec.pipeline_eff", "ratio", median(pipe))

	store, err := spill.NewStore(spill.Config{Dir: spillParent(e)})
	if err != nil {
		return err
	}
	defer store.Close()
	recSrc := recordCells(rng, recRecords)
	cells := make([]int64, len(recSrc))
	opts := mlmsort.ExternalOptions{
		RealOptions: mlmsort.RealOptions{Buffers: 3, Elem: mlmsort.ElemKV},
		Store:       store,
	}
	var p1, merge []time.Duration
	for range 3 {
		copy(cells, recSrc)
		t0 := time.Now()
		runs, _, err := mlmsort.SpillSorted(context.Background(), mlmsort.MLMSort, cells, kernels.JobThreads, recRunCells, opts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		var merged int64
		_, err = mlmsort.MergeSpilled(context.Background(), store, runs, opts, func(b []int64) error {
			merged += int64(len(b))
			return nil
		})
		t2 := time.Now()
		for _, id := range runs {
			store.RemoveRun(id)
		}
		if err != nil {
			return err
		}
		if merged != int64(len(cells)) {
			return fmt.Errorf("MergeSpilled emitted %d of %d cells", merged, len(cells))
		}
		tr.add(0, 0, "mlmsort", "mlmsort.SpillSorted", t0, t1.Sub(t0), map[string]any{"runs": len(runs)})
		tr.add(0, 0, "mlmsort", "mlmsort.MergeSpilled", t1, t2.Sub(t1), nil)
		p1 = append(p1, t1.Sub(t0))
		merge = append(merge, t2.Sub(t1))
	}
	rep.add("mlmsort", "mlmsort.spill_phase1_s", "s", medianSeconds(p1))
	rep.add("mlmsort", "mlmsort.spill_merge_s", "s", medianSeconds(merge))
	return nil
}

// spillParent is where in-process replays put run files.
func spillParent(e *env) string {
	dir := filepath.Join(e.work, "replay-spill")
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// tuneDisk measures the spill directory with tune.MeasureDiskRate.
func tuneDisk(e *env, tr *tracer, rep *report) error {
	var wr, rd []float64
	for range 3 {
		t0 := time.Now()
		r, err := tune.MeasureDiskRate(spillParent(e), diskProbeLen)
		if err != nil {
			return err
		}
		tr.add(0, 0, "tune", "tune.MeasureDiskRate", t0, time.Since(t0), nil)
		wr = append(wr, float64(r.Write)/1e6)
		rd = append(rd, float64(r.Read)/1e6)
	}
	rep.add("tune", "tune.disk_write_mb_s", "MB/s", median(wr))
	rep.add("tune", "tune.disk_read_mb_s", "MB/s", median(rd))
	return nil
}

// wireCodec times wire.EncodeKind and wire.Decode over small service
// job body sizes; each rate is a median over sweeps of the whole size set.
func wireCodec(rng *rand.Rand, sizes []int, tr *tracer, rep *report) {
	keys := kernels.RandomKeys(rng, slices.Max(sizes))
	bodies := make([][]byte, len(sizes))
	total := 0
	for i, n := range sizes {
		bodies[i] = wire.EncodeKind(nil, wire.KindInt64, keys[:n], 0)
		total += 8 * n
	}
	buf := make([]byte, 0, len(bodies[0])+wire.EncodedLen(len(keys), 0))
	dst := make([]int64, len(keys))
	var enc, dec []time.Duration
	for range kernels.Sweeps {
		t0 := time.Now()
		for _, n := range sizes {
			buf = wire.EncodeKind(buf[:0], wire.KindInt64, keys[:n], 0)
		}
		t1 := time.Now()
		for _, b := range bodies {
			_, _ = wire.Decode(bytes.NewReader(b), 0, func(n int) []int64 { return dst[:n] })
		}
		t2 := time.Now()
		tr.add(0, 0, "wire", "wire.EncodeKind", t0, t1.Sub(t0), map[string]any{"bodies": len(sizes)})
		tr.add(0, 0, "wire", "wire.Decode", t1, t2.Sub(t1), map[string]any{"bodies": len(sizes)})
		enc = append(enc, t1.Sub(t0))
		dec = append(dec, t2.Sub(t1))
	}
	rep.add("wire", "wire.encode_mb_s", "MB/s", medianRate(int64(total), enc))
	rep.add("wire", "wire.decode_mb_s", "MB/s", medianRate(int64(total), dec))
}

// spillStore writes and reads back spill-rec-sized runs through the
// spill.Store API.
func spillStore(e *env, rng *rand.Rand, tr *tracer, rep *report) error {
	store, err := spill.NewStore(spill.Config{Dir: spillParent(e)})
	if err != nil {
		return err
	}
	defer store.Close()
	cells := recordCells(rng, recRunCells/2)
	back := make([]int64, 64<<10)
	var wr, rd []time.Duration
	for id := range kernels.Sweeps {
		t0 := time.Now()
		w, err := store.CreateRun(id)
		if err != nil {
			return err
		}
		if err := w.Append(cells); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		t1 := time.Now()
		r, err := store.OpenRun(id)
		if err != nil {
			return err
		}
		got := 0
		for {
			n, err := r.Fill(back)
			got += n
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				r.Close()
				return err
			}
		}
		r.Close()
		t2 := time.Now()
		store.RemoveRun(id)
		if got != len(cells) {
			return fmt.Errorf("spill run read back %d of %d cells", got, len(cells))
		}
		tr.add(0, 0, "spill", "spill.CreateRun+Append", t0, t1.Sub(t0), nil)
		tr.add(0, 0, "spill", "spill.OpenRun+Fill", t1, t2.Sub(t1), nil)
		wr = append(wr, t1.Sub(t0))
		rd = append(rd, t2.Sub(t1))
	}
	rep.add("spill", "spill.write_mb_s", "MB/s", medianRate(int64(len(cells))*8, wr))
	rep.add("spill", "spill.read_mb_s", "MB/s", medianRate(int64(len(cells))*8, rd))
	return nil
}
