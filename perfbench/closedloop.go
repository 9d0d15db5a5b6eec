package main

import (
	"context"
	"errors"
	"time"
)

// runClosedLoop is one client that sends its next job only after the
// previous result arrived and was verified. It cycles through inputs,
// starting jobs until the deadline; the job in flight at the deadline
// finishes and counts.
func runClosedLoop(ctx context.Context, c *client, base string, inputs []*job, deadline time.Time, tr *tracer) []*jobResult {
	var results []*jobResult
	for i := 0; time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			break
		}
		r := newJobResult(inputs[i%len(inputs)])
		closedJob(ctx, c, base, r, tr)
		if !r.sent.IsZero() {
			r.late = r.sent.Sub(r.due)
		}
		results = append(results, r)
	}
	return results
}

// closedJob submits one job, holding the request until it is terminal,
// then downloads and verifies the result.
func closedJob(ctx context.Context, c *client, base string, r *jobResult, tr *tracer) {
	trace := tr.newID()
	r.trace = trace
	st, code, err := c.submit(ctx, base, r)
	submitted := time.Now()
	tr.add(trace, trace, "client", "submit+wait", r.due, submitted.Sub(r.due), nil)
	if err != nil {
		r.err = err
		return
	}
	out, ok := classifySubmit(code, st)
	if !ok {
		r.out, r.err = out, errors.New("submit refused: "+st.Code+" "+st.Error)
		return
	}
	r.id, r.parts, r.skew, r.retries = st.ID, st.Parts, st.Skew, st.Retries
	if !st.Enqueued.IsZero() && st.Finished.After(st.Enqueued) {
		r.srvWall = st.Finished.Sub(st.Enqueued)
	}
	r.err = c.fetch(ctx, base, r)
	if tr != nil {
		end := time.Now()
		tr.add(trace, trace, "client", "download+verify", submitted, end.Sub(submitted), nil)
		tr.addID(trace, 0, trace, "client", "job", r.due, end.Sub(r.due), map[string]any{"job": r.id, "n": r.job.n, "outcome": r.out.String()})
	}
}
