package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/api"
	"knlmlm/internal/model"
	"knlmlm/internal/sched"
	"knlmlm/internal/workload"
)

// TestRetryAfterHeaderRoundsUp pins the wire rule: the Retry-After
// header is whole seconds rounded UP (a sub-second hint must never
// render as "0" and invite a hot retry loop), while the JSON body keeps
// the millisecond-precision hint.
func TestRetryAfterHeaderRoundsUp(t *testing.T) {
	cases := []struct {
		retryAfter time.Duration
		header     string
		bodyMS     int64
	}{
		{250 * time.Millisecond, "1", 250},
		{1500 * time.Millisecond, "2", 1500},
		{3 * time.Second, "3", 3000},
		{0, "1", 0},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeSchedError(rec, &sched.OverloadError{Reason: "queue-full", RetryAfter: tc.retryAfter})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%v: HTTP %d, want 429", tc.retryAfter, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.header {
			t.Fatalf("%v: Retry-After = %q, want %q", tc.retryAfter, got, tc.header)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%v: decode body: %v", tc.retryAfter, err)
		}
		if eb.RetryAfterMS != tc.bodyMS {
			t.Fatalf("%v: retry_after_ms = %d, want %d", tc.retryAfter, eb.RetryAfterMS, tc.bodyMS)
		}
	}
	// predicted-late rejections additionally carry the model's predicted
	// start delay so a client can see why its deadline was infeasible.
	rec := httptest.NewRecorder()
	writeSchedError(rec, &sched.OverloadError{
		Reason: "predicted-late", RetryAfter: 700 * time.Millisecond, PredictedWait: 4200 * time.Millisecond,
	})
	var eb api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decode predicted-late body: %v", err)
	}
	if eb.Code != "overloaded-predicted-late" || eb.PredictedWaitMS != 4200 {
		t.Fatalf("predicted-late body = %+v, want code overloaded-predicted-late with predicted_wait_ms 4200", eb)
	}
}

// TestClassifySubmitErrAdmissionLatency pins the reclassification rule:
// an ErrDeadlineExpired submit rejection on a request that carried a
// relative wire deadline becomes retryable overload (admission latency
// consumed the whole window; a retry restarts it), while the same error
// without a wire deadline — and every other error — passes through.
func TestClassifySubmitErrAdmissionLatency(t *testing.T) {
	err := classifySubmitErr(sched.ErrDeadlineExpired, 1500)
	var oe *sched.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("classified err = %v, want OverloadError", err)
	}
	if oe.Reason != "admission-latency" || oe.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("classified err = %+v, want admission-latency with 1.5s hint", oe)
	}
	rec := httptest.NewRecorder()
	writeSchedError(rec, err)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("admission-latency maps to HTTP %d, want 429", rec.Code)
	}

	if err := classifySubmitErr(sched.ErrDeadlineExpired, 0); err != sched.ErrDeadlineExpired {
		t.Fatalf("no wire deadline: err = %v, want pass-through", err)
	}
	if err := classifySubmitErr(sched.ErrTooLarge, 1500); err != sched.ErrTooLarge {
		t.Fatalf("unrelated error: err = %v, want pass-through", err)
	}
}

// TestHealthzReportsBrownout checks the /healthz degradation fields: a
// healthy idle server reports level normal/0, and the endpoint stays 200
// (browned out is degraded on purpose, not down).
func TestHealthzReportsBrownout(t *testing.T) {
	ts := newTestServer(t, nil)
	resp, raw := ts.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d: %s", resp.StatusCode, raw)
	}
	var hb api.NodeHealth
	if err := json.Unmarshal(raw, &hb); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hb.Brownout != "normal" || hb.BrownoutLevel != 0 {
		t.Fatalf("idle server brownout = %q/%d, want normal/0", hb.Brownout, hb.BrownoutLevel)
	}
}

// TestShedJobOnTheWire drives an in-queue shed end to end over HTTP: a
// deadlined job queued behind a stuck worker is evicted by the
// dispatcher, surfaces state=failed with shed=true in its status, and
// the shed shows up in /metrics and /debug/overload attribution.
func TestShedJobOnTheWire(t *testing.T) {
	g := newGate()
	ts := newTestServer(t, func(c *sched.Config) {
		c.Workers = 1
		c.Wrap = g.wrap
	})
	defer g.open()

	resp, raw := ts.post(t, api.SortRequest{Keys: workload.Generate(workload.Random, 40000, 1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d: %s", resp.StatusCode, raw)
	}
	blocker := decodeStatus(t, raw)
	waitState(t, ts, blocker.ID, "running")

	resp, raw = ts.post(t, api.SortRequest{
		Keys:       workload.Generate(workload.Random, 40000, 2),
		DeadlineMS: 300,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadlined job: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	st = waitState(t, ts, st.ID, "failed")
	if !st.Shed {
		t.Fatalf("shed job status missing shed flag: %+v", st)
	}

	_, raw = ts.get(t, "/metrics")
	if !strings.Contains(string(raw), "sched_shed_total") {
		t.Fatal("/metrics missing sched_shed_total after a shed")
	}
	if !strings.Contains(string(raw), "sched_brownout_level") {
		t.Fatal("/metrics missing sched_brownout_level")
	}

	resp, raw = ts.get(t, "/debug/overload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/overload: HTTP %d: %s", resp.StatusCode, raw)
	}
	var ob overloadBody
	if err := json.Unmarshal(raw, &ob); err != nil {
		t.Fatalf("decode overload body: %v", err)
	}
	if ob.Brownout.Name == "" {
		t.Fatalf("overload body missing brownout name: %+v", ob.Brownout)
	}
	if got := ob.Brownout.Shed["deadline-expired"]; got < 1 {
		t.Fatalf("overload shed attribution = %+v, want deadline-expired >= 1", ob.Brownout.Shed)
	}

	g.open()
	waitState(t, ts, blocker.ID, "done")
}

// TestPreDecodeDeadlineShed proves the front door refuses a doomed
// deadlined request before parsing its body: with the backlog priced
// past the X-Deadline-Ms header, a submit whose body is not even valid
// JSON still gets the model's 429 predicted-late — a decode would have
// answered 400. The body-level deadline checks stay authoritative for
// requests the pre-check admits.
func TestPreDecodeDeadlineShed(t *testing.T) {
	g := newGate()
	ts := newTestServer(t, func(c *sched.Config) {
		c.Workers = 1
		c.Rates = slowServeRates()
		c.Wrap = g.wrap
	})
	defer g.open()

	resp, raw := ts.post(t, api.SortRequest{Keys: workload.Generate(workload.Random, 40000, 1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d: %s", resp.StatusCode, raw)
	}
	blocker := decodeStatus(t, raw)
	waitState(t, ts, blocker.ID, "running")
	resp, raw = ts.post(t, api.SortRequest{Keys: workload.Generate(workload.Random, 40000, 2)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("backlog job: HTTP %d: %s", resp.StatusCode, raw)
	}
	queued := decodeStatus(t, raw)

	req, err := http.NewRequest(http.MethodPost, ts.http.URL+"/v1/sort", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", "2000")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("deadlined POST: %v", err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-decode shed: HTTP %d: %s, want 429", resp2.StatusCode, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != "overloaded-predicted-late" || eb.PredictedWaitMS <= 0 {
		t.Fatalf("pre-decode shed body = %+v, want overloaded-predicted-late with predicted wait", eb)
	}

	g.open()
	waitState(t, ts, blocker.ID, "done")
	waitState(t, ts, queued.ID, "done")
}

// TestIngestGateBusy pins the decode gate: with every slot held, a
// deadlined submit waits at most its own deadline before the retryable
// ingest-busy answer, a request arriving behind a hopeless line is
// refused immediately, and a freed slot admits again.
func TestIngestGateBusy(t *testing.T) {
	ts := newTestServer(t, nil)
	srv := ts.srv
	for i := 0; i < cap(srv.gate); i++ {
		srv.gate <- struct{}{}
	}

	mkReq := func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/v1/sort", strings.NewReader("{}"))
		req.Header.Set("X-Deadline-Ms", "50")
		return req
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	if srv.acquireGate(mkReq(), rec, 50*time.Millisecond) {
		t.Fatal("acquired a full gate")
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("gave up after %v, want ~the deadline", waited)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("gate timeout: HTTP %d, want 429", rec.Code)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if eb.Code != "overloaded-ingest-busy" {
		t.Fatalf("gate timeout code = %q, want overloaded-ingest-busy", eb.Code)
	}

	// A line already several gate-widths deep is hopeless: refuse without
	// parking a goroutine on it.
	srv.gateWaiters.Store(int64(4 * cap(srv.gate)))
	rec = httptest.NewRecorder()
	start = time.Now()
	if srv.acquireGate(mkReq(), rec, 50*time.Millisecond) {
		t.Fatal("acquired past the waiter cap")
	}
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Fatalf("hopeless line still waited %v", waited)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("waiter cap: HTTP %d, want 429", rec.Code)
	}
	srv.gateWaiters.Store(0)

	<-srv.gate
	if !srv.acquireGate(mkReq(), httptest.NewRecorder(), 50*time.Millisecond) {
		t.Fatal("freed slot not acquired")
	}
	<-srv.gate
	for i := 1; i < cap(srv.gate); i++ {
		<-srv.gate
	}
}

// slowServeRates mirrors the sched package's pessimistic rate fixture:
// staged jobs price at tens of seconds, making model rejections
// deterministic without real load.
func slowServeRates() model.Params {
	return model.Params{
		BCopy:     1 << 20,
		DDRMax:    1 << 30,
		MCDRAMMax: 1 << 30,
		SCopy:     4 << 10,
		SComp:     4 << 10,
	}
}
