package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"knlmlm/internal/api"
	"knlmlm/internal/wire"
)

// Server is the coordinator's HTTP face. It speaks the node protocol of
// internal/api — POST /v1/sort (JSON or binary), job status, streamed
// result download with wire content negotiation, /healthz, /metrics —
// so loadgen and other clients point at a coordinator with no changes;
// /healthz additionally carries the fleet view (a "backends" array),
// which is also how a client can tell the tiers apart.
type Server struct {
	coord *Coordinator
	mux   *http.ServeMux
}

// ServerConfig describes a Server.
type ServerConfig struct {
	// Coordinator is the routing core. Required.
	Coordinator *Coordinator
}

// maxBodyBytes bounds submit bodies: 256 MiB, four times a node's limit
// — the coordinator exists to take jobs bigger than one node wants.
const maxBodyBytes = 256 << 20

// NewServer builds the HTTP front end.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: Coordinator is required")
	}
	s := &Server{coord: cfg.Coordinator, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/sort", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips healthz to 503 and waits for in-flight jobs.
func (s *Server) Drain(ctx context.Context) error { return s.coord.Drain(ctx) }

func statusOf(j *Job) api.JobStatus {
	j.mu.Lock()
	st := api.JobStatus{
		ID:        j.id,
		State:     j.state,
		N:         j.n,
		Parts:     len(j.parts),
		Skew:      j.skew,
		Resampled: j.resampled,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == stateDone {
		st.ResultURL = api.ResultURL(j.id)
	}
	st.SetTimes(j.enq, j.started, j.fin)
	j.mu.Unlock()
	st.Retries = j.Retries()
	return st
}

// handleSubmit parses with the node's rules, so a bad option is refused
// here, before any partition is uploaded. The coordinator sorts int64
// keys only.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := api.ParseSubmit(w, r, maxBodyBytes, nil)
	if !ok {
		return
	}
	if req.Kind != wire.KindInt64 {
		api.WriteError(w, http.StatusBadRequest, "bad-request",
			"the coordinator sorts i64 keys only, not "+req.Kind.String())
		return
	}
	j, err := s.coord.Submit(req.Keys, jobOptions{
		Priority:     req.Priority,
		DeadlineMS:   req.DeadlineMS,
		Algorithm:    req.Algorithm,
		MegachunkLen: req.MegachunkLen,
	})
	if errors.Is(err, errDraining) {
		api.WriteError(w, http.StatusServiceUnavailable, "draining", err.Error())
		return
	} else if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	if req.Wait {
		if err := j.Wait(r.Context()); err != nil {
			return // client went away; the job keeps running
		}
		api.WriteJSON(w, http.StatusOK, statusOf(j))
		return
	}
	w.Header().Set("Location", api.JobURL(j.ID()))
	api.WriteJSON(w, http.StatusAccepted, statusOf(j))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.coord.Lookup(r.PathValue("id"))
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

// handleResult streams the merged result — chunked JSON array by
// default, the wire frame stream under Accept: application/x-mlm-keys.
// The merge runs inside this handler (backends -> merge -> socket); a
// client disconnect cancels the downloads. Consume-once, like the
// single node's spill results: a repeat GET answers 410 Gone.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	err := api.WriteResult(w, r, api.Result{N: j.N(), Stream: j.StreamResult})
	switch {
	case err == nil:
	case errors.Is(err, ErrNotReady):
		api.WriteError(w, http.StatusConflict, "not-ready", err.Error())
	case errors.Is(err, ErrResultConsumed):
		api.WriteError(w, http.StatusGone, "result-consumed", err.Error())
	default:
		api.WriteError(w, http.StatusInternalServerError, "cluster-merge", err.Error())
	}
}

// healthBody is the coordinator's /healthz payload: overall status plus
// the per-backend fleet view.
type healthBody struct {
	Status   string        `json:"status"`
	Draining bool          `json:"draining"`
	Backends []backendView `json:"backends"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := healthBody{
		Status:   "ok",
		Draining: s.coord.Draining(),
		Backends: s.coord.backendViews(),
	}
	code := http.StatusOK
	if body.Draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	up := 0
	for _, b := range body.Backends {
		if b.Up {
			up++
		}
	}
	if up == 0 && code == http.StatusOK {
		body.Status = "no-backends"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.coord.Registry().WritePrometheus(w)
}
