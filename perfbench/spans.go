package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out once,
// when the run ends. A nil *tracer records nothing: the untraced run
// passes nil, so its measured path carries no span bookkeeping.
//
// Spans are recorded by the benchmark around its calls into each layer;
// server-side phases come from the service's own per-job traces and are
// attached as children of the client's job span. Spans of one job share
// a trace id.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

type span struct {
	id, parent, trace uint64
	layer, name       string
	start             time.Time
	dur               time.Duration
	args              map[string]any
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns a fresh span (or trace) id; zero on a nil tracer.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records one finished span under a fresh id and returns the id.
func (t *tracer) add(parent, trace uint64, layer, name string, start time.Time, dur time.Duration, args map[string]any) uint64 {
	return t.addID(t.newID(), parent, trace, layer, name, start, dur, args)
}

// addID records one finished span under an id taken earlier from newID,
// so children recorded first can already name it as their parent.
func (t *tracer) addID(id, parent, trace uint64, layer, name string, start time.Time, dur time.Duration, args map[string]any) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, trace: trace, layer: layer, name: name, start: start, dur: dur, args: args})
	t.mu.Unlock()
	return id
}

// write exports the spans in the Chrome trace-event format (one "X"
// event per span, with span, parent and trace ids in args), which
// Perfetto and chrome://tracing load directly.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"span": s.id, "parent": s.parent, "trace": s.trace}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.trace, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// count reports the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
