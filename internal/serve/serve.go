// Package serve is the network front end of the sort service: the
// protocol of internal/api over internal/sched. It maps the
// scheduler's typed admission errors onto HTTP semantics (429 with
// Retry-After for overload, 413 for jobs that can never fit any tier's
// budget), streams large sorted results with chunked transfer encoding,
// and exposes the scheduler's sched_* families plus its own serve_*
// counters on /metrics in Prometheus text format.
//
// Spill-class results are special: their sorted output exists only as
// disk run files, and GET /v1/jobs/{id}/result runs the deferred k-way
// merge directly into the chunked response — the result never
// materializes in DDR. The merge is bound to the request context, so a
// mid-download disconnect cancels it and releases the run files and
// disk lease; the download is consume-once, and a repeat GET answers
// 410 Gone.
//
// Besides JSON the service negotiates a binary wire format
// (internal/wire, Content-Type application/x-mlm-keys). A binary
// submit carries the frame stream as its body — options ride query
// parameters — and decodes straight into a pooled key buffer sized
// from the stream header, with no intermediate allocation. A download
// with Accept: application/x-mlm-keys streams the sorted keys as
// frame-sized writes directly off Job.StreamResult, for in-memory and
// spilled jobs alike. JSON remains the default in both directions.
// Parsing, negotiation and result streaming live in internal/api, which
// the cluster coordinator shares; this package adds the scheduler glue:
// the decode gate, pre-decode shedding, scheduler error mapping, job
// traces and the /debug routes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"knlmlm/internal/api"
	"knlmlm/internal/mem"
	"knlmlm/internal/sched"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/wire"
)

// Config describes a Server.
type Config struct {
	// Scheduler is the service core. Required.
	Scheduler *sched.Scheduler
	// Registry is served on /metrics; pass the same registry the
	// scheduler publishes to so one scrape sees both layers. When nil a
	// private registry holds only the serve_* families.
	Registry *telemetry.Registry
	// MaxBodyBytes bounds POST /v1/sort request bodies. Zero selects
	// 64 MiB.
	MaxBodyBytes int64
	// KeyPool supplies the destination buffers for binary submit bodies.
	// Defaults to the scheduler's pool (Scheduler.KeyPool), closing the
	// recycle loop: upload decodes into a pooled buffer, the sort runs in
	// place, and retention eviction returns the buffer for the next
	// upload. When the scheduler has no pool either, a private pool keeps
	// the decode path uniform (its buffers are simply never recycled).
	KeyPool *mem.SlicePool
	// DecodeConcurrency bounds how many submit bodies decode at once.
	// Parsing a large key array costs about as much CPU as sorting it, so
	// unbounded concurrent decodes are an unmodeled second queue in front
	// of the scheduler: under overload they starve the very pipelines the
	// admission model prices. A submit waits for a decode slot — up to its
	// X-Deadline-Ms when it carries one (then 429 "ingest-busy"),
	// indefinitely otherwise. Zero selects max(2, GOMAXPROCS).
	DecodeConcurrency int
	// Logger, when non-nil, receives structured request-level events
	// (submissions accepted/rejected) with job and tenant attributes.
	Logger *slog.Logger
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg         Config
	sched       *sched.Scheduler
	reg         *telemetry.Registry
	mux         *http.ServeMux
	draining    atomic.Bool
	logger      *slog.Logger
	gate        chan struct{}
	gateWaiters atomic.Int64

	requests *telemetry.Counter
	inflight *telemetry.Gauge
	latency  *telemetry.Histogram
}

// New builds a Server over a running scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("serve: Scheduler is required")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.KeyPool == nil {
		cfg.KeyPool = cfg.Scheduler.KeyPool()
	}
	if cfg.KeyPool == nil {
		cfg.KeyPool = mem.NewSlicePool()
	}
	if cfg.DecodeConcurrency <= 0 {
		cfg.DecodeConcurrency = runtime.GOMAXPROCS(0)
		if cfg.DecodeConcurrency < 2 {
			cfg.DecodeConcurrency = 2
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		sched: cfg.Scheduler,
		reg:   reg,
		mux:   http.NewServeMux(),
		gate:  make(chan struct{}, cfg.DecodeConcurrency),
		requests: reg.Counter("serve_requests_total",
			"HTTP requests accepted by the sort service.", nil),
		inflight: reg.Gauge("serve_requests_inflight",
			"HTTP requests currently being handled.", nil),
		latency: reg.Histogram("serve_request_seconds",
			"HTTP request handling latency.", nil, telemetry.DefLatencyBuckets()),
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	s.mux.HandleFunc("POST /v1/sort", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	s.mux.HandleFunc("GET /debug/overload", s.handleOverload)
	return s, nil
}

// ServeHTTP dispatches with request accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.latency.Observe(time.Since(start).Seconds())
	}()
	s.mux.ServeHTTP(w, r)
}

// Drain marks the server draining (healthz flips to 503 so load
// balancers stop routing here), stops admissions, and waits for every
// queued and running job to resolve. Call before http.Server.Shutdown
// for a connection-complete graceful stop.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.Drain(ctx)
}

func statusOf(j *sched.Job) api.JobStatus {
	st := api.JobStatus{
		ID:    j.ID(),
		State: j.State().String(),
		N:     j.N(),
	}
	if kt := j.KeyType(); kt != sched.KeyInt64 {
		st.KeyType = kt.String()
	}
	if w := j.QueueWait(); w > 0 {
		st.QueueWait = w.String()
	}
	if lb := j.LeaseBytes(); lb > 0 {
		st.LeaseBytes = lb
	}
	if j.Spilled() {
		st.Spilled = true
		st.DiskLeaseBytes = j.DiskLeaseBytes()
	}
	if err := j.Err(); err != nil {
		st.Error = err.Error()
		st.Shed = errors.Is(err, sched.ErrShed)
	}
	if j.State() == sched.Done {
		st.ResultURL = api.ResultURL(j.ID())
	}
	st.SetTimes(j.Times())
	return st
}

// writeSchedError maps the scheduler's typed errors to HTTP statuses:
// overload (retryable) becomes 429 with a Retry-After header, too-large
// (never admittable) becomes 413, an already-expired deadline becomes
// 400, closed becomes 503.
func writeSchedError(w http.ResponseWriter, err error) {
	var oe *sched.OverloadError
	switch {
	case errors.As(err, &oe):
		// Retry-After is whole seconds on the wire (RFC 9110); round UP so
		// a sub-second hint never renders as "0" and invites a hot retry
		// loop. The JSON body keeps the millisecond-precision hint.
		secs := int64((oe.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorBody{
			Error:           err.Error(),
			Code:            "overloaded-" + oe.Reason,
			RetryAfterMS:    oe.RetryAfter.Milliseconds(),
			PredictedWaitMS: oe.PredictedWait.Milliseconds(),
		})
	case errors.Is(err, sched.ErrTooLarge):
		api.WriteError(w, http.StatusRequestEntityTooLarge, "too-large", err.Error())
	case errors.Is(err, sched.ErrDeadlineExpired):
		// Retrying an already-expired deadline can never succeed; this is
		// a client error, not backpressure.
		api.WriteError(w, http.StatusBadRequest, "deadline-expired", err.Error())
	case errors.Is(err, sched.ErrBadSpec):
		api.WriteError(w, http.StatusBadRequest, "bad-request", err.Error())
	case errors.Is(err, sched.ErrClosed):
		api.WriteError(w, http.StatusServiceUnavailable, "closed", err.Error())
	default:
		api.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// classifySubmitErr reclassifies a deadline expiry on a relative-deadline
// request. The wire deadline is deadline_ms relative to decode time, so
// Submit can only see it already expired when admission latency (decode
// backlog, scheduler lock contention) ate the whole budget — that is
// overload, not a malformed request: a retry restarts the relative
// window and may well succeed. The Retry-After hint is the deadline
// budget itself — by construction the server currently needs longer than
// that to admit anything. Absolute expiry with no wire deadline keeps
// the non-retryable 400 mapping.
func classifySubmitErr(err error, deadlineMS int64) error {
	if deadlineMS > 0 && errors.Is(err, sched.ErrDeadlineExpired) {
		return &sched.OverloadError{
			Reason:     "admission-latency",
			RetryAfter: time.Duration(deadlineMS) * time.Millisecond,
		}
	}
	return err
}

// wireKindOf maps a job's key type to its wire stream kind.
func wireKindOf(k sched.KeyType) wire.Kind {
	switch k {
	case sched.KeyFloat64:
		return wire.KindFloat64
	case sched.KeyRecord:
		return wire.KindRecord
	}
	return wire.KindInt64
}

// keyTypeOf maps a wire stream kind to the scheduler's key type.
func keyTypeOf(k wire.Kind) sched.KeyType {
	switch k {
	case wire.KindFloat64:
		return sched.KeyFloat64
	case wire.KindRecord:
		return sched.KeyRecord
	}
	return sched.KeyInt64
}

// acquireGate takes a decode slot for a submit. A request carrying a
// relative deadline waits at most that long and is answered with a
// retryable 429 "ingest-busy" on timeout — or instantly when the ingest
// line is already several gate-widths deep, because joining a hopeless
// line just parks a goroutine for a deadline's worth of nothing (the
// thundering-herd tax under deep overload). One without a deadline waits
// until a slot frees or the client goes away. Reports whether the slot
// was acquired (false means the response, if any, was already written).
func (s *Server) acquireGate(r *http.Request, w http.ResponseWriter, hdrDeadline time.Duration) bool {
	select {
	case s.gate <- struct{}{}:
		return true
	default:
	}
	if hdrDeadline > 0 {
		if s.gateWaiters.Load() >= int64(4*cap(s.gate)) {
			writeSchedError(w, &sched.OverloadError{Reason: "ingest-busy", RetryAfter: hdrDeadline})
			return false
		}
		s.gateWaiters.Add(1)
		defer s.gateWaiters.Add(-1)
		t := time.NewTimer(hdrDeadline)
		defer t.Stop()
		select {
		case s.gate <- struct{}{}:
			return true
		case <-t.C:
			writeSchedError(w, &sched.OverloadError{Reason: "ingest-busy", RetryAfter: hdrDeadline})
			return false
		case <-r.Context().Done():
			return false
		}
	}
	select {
	case s.gate <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The trace is born at the HTTP edge, before the body is read, so the
	// admit phase covers decode + admission — the request-scoped handle
	// every lower layer records into.
	tr := telemetry.NewJobTrace()
	tr.Event("http-receive")
	// Pre-decode shedding: a client that carries its start deadline in the
	// X-Deadline-Ms header lets the model refuse a doomed request before
	// its body is parsed. Decoding a large key array costs about as much
	// CPU as sorting it, so under deep overload a server that decodes
	// before rejecting spends its capacity on requests it then refuses —
	// goodput collapses exactly when backpressure matters most. The body's
	// deadline_ms (checked after decode) stays authoritative.
	var hdrDeadline time.Duration
	if ms, err := strconv.ParseInt(r.Header.Get("X-Deadline-Ms"), 10, 64); err == nil && ms > 0 {
		hdrDeadline = time.Duration(ms) * time.Millisecond
		if err := s.sched.PreAdmit(hdrDeadline); err != nil {
			writeSchedError(w, err)
			return
		}
	}
	// Decode gate: bounded concurrent body parsing. Waiting costs nothing
	// but time; a deadlined request only waits as long as its own deadline
	// budget before taking a backpressure answer.
	if !s.acquireGate(r, w, hdrDeadline) {
		return
	}
	gateHeld := true
	releaseGate := func() {
		if gateHeld {
			gateHeld = false
			<-s.gate
		}
	}
	defer releaseGate()
	if hdrDeadline > 0 {
		// Re-check with the slot held: the backlog may have grown while
		// this request waited in the ingest line.
		if err := s.sched.PreAdmit(hdrDeadline); err != nil {
			writeSchedError(w, err)
			return
		}
	}
	req, ok := api.ParseSubmit(w, r, s.cfg.MaxBodyBytes, s.cfg.KeyPool)
	if !ok {
		return
	}
	tr.EventDetail("decoded", strconv.Itoa(len(req.Keys))+" keys")
	// The slot covers parsing only: a Wait-mode handler lingers for the
	// whole sort, and holding ingest capacity across it would let a few
	// slow jobs stall the front door.
	releaseGate()
	spec := sched.JobSpec{
		Data:         req.Keys,
		KeyType:      keyTypeOf(req.Kind),
		Priority:     req.Priority,
		Algorithm:    req.Alg,
		MegachunkLen: req.MegachunkLen,
		Tenant:       r.Header.Get("X-Tenant"),
		Trace:        tr,
	}
	if req.DeadlineMS > 0 {
		spec.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	j, err := s.sched.SubmitCtx(telemetry.WithTrace(r.Context(), tr), spec)
	if err != nil {
		if req.Binary {
			s.cfg.KeyPool.Put(req.Keys)
		}
		writeSchedError(w, classifySubmitErr(err, req.DeadlineMS))
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "job accepted",
		slog.String("job", j.ID()),
		slog.String("tenant", spec.Tenant),
		slog.Int("n", j.N()),
		slog.Bool("spilled", j.Spilled()))
	if req.Wait {
		if err := j.Wait(r.Context()); err != nil && r.Context().Err() != nil {
			// Client went away; the job keeps running server-side.
			return
		}
		api.WriteJSON(w, http.StatusOK, statusOf(j))
		return
	}
	w.Header().Set("Location", api.JobURL(j.ID()))
	api.WriteJSON(w, http.StatusAccepted, statusOf(j))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*sched.Job, bool) {
	j, ok := s.sched.Lookup(r.PathValue("id"))
	if !ok {
		api.NotFound(w)
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		api.WriteJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		j.Cancel()
		api.WriteJSON(w, http.StatusOK, statusOf(j))
	}
}

// handleResult streams the sorted keys — as a chunked JSON array by
// default, as the binary frame stream when the client sends Accept:
// application/x-mlm-keys. Both encodings ride Job.StreamResult: an
// in-memory job delivers its (possibly pooled) result buffer in one
// batch, a spill-class job runs its deferred k-way merge straight into
// the response (disk -> merge -> socket, never materialized in DDR).
// The merge is bound to the request context, so a client disconnect
// cancels it and releases the run files and disk lease; the spilled
// stream is consume-once, and a repeat GET answers 410 Gone.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.State().Terminal() {
		api.WriteError(w, http.StatusConflict, "not-ready", "job still "+j.State().String())
		return
	}
	if err := j.Err(); err != nil && !j.Spilled() {
		api.WriteError(w, http.StatusConflict, "job-"+j.State().String(), err.Error())
		return
	}
	err := api.WriteResult(w, r, api.Result{
		N: j.N(), Kind: wireKindOf(j.KeyType()), Spilled: j.Spilled(), Stream: j.StreamResult,
	})
	switch {
	case err == nil:
	case errors.Is(err, sched.ErrResultConsumed):
		api.WriteError(w, http.StatusGone, "result-consumed", err.Error())
	default:
		api.WriteError(w, http.StatusInternalServerError, "spill-merge", err.Error())
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.sched.Snapshot()
	rates := s.sched.Rates()
	body := api.NodeHealth{
		Status:           "ok",
		Draining:         s.draining.Load() || snap.Draining,
		Queued:           snap.Queued,
		Running:          snap.Running,
		LeasedBytes:      int64(snap.LeasedBytes),
		BudgetBytes:      int64(snap.BudgetBytes),
		DiskLeasedBytes:  int64(snap.DiskLeasedBytes),
		DiskBudgetBytes:  int64(snap.DiskBudgetBytes),
		Brownout:         snap.Brownout.String(),
		BrownoutLevel:    int(snap.Brownout),
		QueueDelayEWMAMS: float64(snap.QueueDelayEWMA.Nanoseconds()) / 1e6,
		Capacity: api.Capacity{
			HeadroomBytes:    int64(snap.BudgetBytes) - int64(snap.LeasedBytes),
			QueueDepth:       snap.Queued,
			BrownoutLevel:    int(snap.Brownout),
			EWMACopyBps:      float64(rates.SCopy),
			EWMACompBps:      float64(rates.SComp),
			Threads:          s.sched.TotalThreads(),
			PredictedStartMS: float64(snap.PredictedStart.Nanoseconds()) / 1e6,
		},
	}
	code := http.StatusOK
	if body.Draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// A write error here means the scraper disconnected mid-response;
	// there is nothing left to signal it to.
	_ = s.reg.WritePrometheus(w)
}
