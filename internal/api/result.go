package api

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"knlmlm/internal/wire"
)

// jsonChunkElems is the JSON result streaming granularity: elements per
// chunked write and flush.
const jsonChunkElems = 8192

// Result is a terminal job's sorted output, as the result route serves
// it.
type Result struct {
	// N is the element count (payload cells for a record stream).
	N       int
	Kind    wire.Kind
	Spilled bool
	// Stream delivers the sorted keys through emit as nondecreasing
	// batches, each valid only during its call — a node's
	// Job.StreamResult, or the coordinator's merge over its backends.
	Stream func(ctx context.Context, emit func([]int64) error) (int64, error)
}

// WriteResult streams res onto the response: as wire frames when the
// client sent Accept: application/x-mlm-keys, else as a JSON array
// written in fixed-size chunks with a flush between them, so a
// multi-gigabyte result never materializes as one response buffer.
// Wire frames are cut at fixed offsets (wire.Writer), so the same keys
// download as the same bytes from either tier whatever the batches were,
// and on the zero-copy path a frame's payload is the batch's own memory.
// Typed keys have no JSON form, so a typed result is wire-only (400
// otherwise).
//
// Headers go out lazily with the first batch, so a Stream that fails
// before emitting anything leaves the response unwritten: WriteResult
// returns that error for the caller to map to a status. Once bytes are
// out, or the client has gone away, a failure can only truncate the
// body (no closing bracket, no end-of-stream marker), and WriteResult
// returns nil.
func WriteResult(w http.ResponseWriter, r *http.Request, res Result) error {
	binary := AcceptsWire(r)
	ct := wire.ContentTypeFor(res.Kind)
	if !binary {
		if res.Kind != wire.KindInt64 {
			WriteError(w, http.StatusBadRequest, "bad-request",
				fmt.Sprintf("job has %s keys; download with Accept: %s", res.Kind, ct))
			return nil
		}
		ct = "application/json"
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	fw := wire.NewWriterKind(w, res.Kind, res.N, wire.DefaultFrameElems)
	started, first := false, true
	begin := func() error {
		if started {
			return nil
		}
		started = true
		w.Header().Set("Content-Type", ct)
		w.Header().Set("X-Sort-Elements", strconv.Itoa(res.N))
		if res.Spilled {
			w.Header().Set("X-Sort-Spilled", "true")
		}
		if binary {
			return nil
		}
		_, err := w.Write([]byte("["))
		return err
	}
	var text []byte
	write := func(batch []int64) error {
		if err := begin(); err != nil {
			return err
		}
		if binary {
			err := fw.Write(batch)
			flush()
			return err
		}
		for lo := 0; lo < len(batch); lo += jsonChunkElems {
			text = text[:0]
			for _, v := range batch[lo:min(lo+jsonChunkElems, len(batch))] {
				if !first {
					text = append(text, ',')
				}
				first = false
				text = strconv.AppendInt(text, v, 10)
			}
			if _, err := w.Write(text); err != nil {
				return err
			}
			flush()
		}
		return nil
	}
	var werr error
	_, err := res.Stream(r.Context(), func(batch []int64) error {
		werr = write(batch)
		return werr
	})
	switch {
	case err == nil:
		switch {
		case begin() != nil:
		case binary:
			_ = fw.Close()
		default:
			_, _ = w.Write([]byte("]\n"))
		}
		return nil
	case werr != nil || started || r.Context().Err() != nil:
		return nil
	}
	return err
}
