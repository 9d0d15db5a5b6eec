package serve

import (
	"net/http"
	"time"

	"knlmlm/internal/api"
	"knlmlm/internal/telemetry"
)

// The /debug surface serves the flight recorder and overload attribution:
//
//	GET /debug/jobs/{id}/trace   one job's lifecycle timeline (JSON), or
//	                             ?format=chrome for a Perfetto /
//	                             chrome://tracing export of the same job
//	GET /debug/flightrecorder    ring summary + compact per-job rows
//	GET /debug/overload          phase decomposition of recent latency,
//	                             tail attribution, Eq. 1-5 drift
//
// Everything is read-only over the scheduler's bounded trace ring, so the
// endpoints are safe to curl on a loaded service.

// handleJobTrace serves one job's trace. Unknown and already-evicted ids
// are indistinguishable (the ring is the only store): both answer 404.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.sched.FlightRecorder().Get(r.PathValue("id"))
	if tr == nil {
		api.WriteError(w, http.StatusNotFound, "trace-not-found",
			"no trace: job unknown or evicted from the flight recorder")
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename="+tr.ID()+".trace.json")
		_ = tr.Chrome().Write(w)
		return
	}
	api.WriteJSON(w, http.StatusOK, tr.Snapshot())
}

// flightJob is the compact per-job row of /debug/flightrecorder.
type flightJob struct {
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant,omitempty"`
	State     string  `json:"state,omitempty"`
	N         int     `json:"n"`
	Spilled   bool    `json:"spilled,omitempty"`
	TotalMS   float64 `json:"total_ms"`
	RunMS     float64 `json:"run_ms,omitempty"`
	Submitted string  `json:"submitted"`
	TraceURL  string  `json:"trace_url"`
}

// flightBody is the /debug/flightrecorder payload.
type flightBody struct {
	Capacity int         `json:"capacity"`
	Len      int         `json:"len"`
	Evicted  int64       `json:"evicted"`
	Jobs     []flightJob `json:"jobs"`
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	fr := s.sched.FlightRecorder()
	traces := fr.Snapshot()
	body := flightBody{
		Capacity: fr.Cap(),
		Len:      fr.Len(),
		Evicted:  fr.Evicted(),
		Jobs:     make([]flightJob, 0, len(traces)),
	}
	for _, tr := range traces {
		snap := tr.Snapshot()
		body.Jobs = append(body.Jobs, flightJob{
			ID:        snap.ID,
			Tenant:    snap.Tenant,
			State:     snap.State,
			N:         snap.N,
			Spilled:   snap.Spilled,
			TotalMS:   snap.TotalMS,
			RunMS:     snap.PhasesMS["run"],
			Submitted: snap.Submitted.UTC().Format(time.RFC3339Nano),
			TraceURL:  "/debug/jobs/" + snap.ID + "/trace",
		})
	}
	api.WriteJSON(w, http.StatusOK, body)
}

// overloadBody pairs the phase decomposition with the scheduler's
// point-in-time occupancy, so one read answers both "where is time
// going" and "how loaded are we right now".
type overloadBody struct {
	telemetry.OverloadReport
	Sched struct {
		Queued          int   `json:"queued"`
		Running         int   `json:"running"`
		Submitted       int64 `json:"submitted"`
		LeasedBytes     int64 `json:"leased_bytes"`
		BudgetBytes     int64 `json:"budget_bytes"`
		DiskLeasedBytes int64 `json:"disk_leased_bytes,omitempty"`
		DiskBudgetBytes int64 `json:"disk_budget_bytes,omitempty"`
		Draining        bool  `json:"draining,omitempty"`
	} `json:"sched"`
	// Brownout is the overload controller's live state: degradation
	// level, the smoothed queue-delay signal, the model-predicted start
	// delay a job admitted now would see, and what has been shed so far.
	Brownout struct {
		Level            int              `json:"level"`
		Name             string           `json:"name"`
		QueueDelayEWMAMS float64          `json:"queue_delay_ewma_ms"`
		PredictedStartMS float64          `json:"predicted_start_ms"`
		Shed             map[string]int64 `json:"shed,omitempty"`
	} `json:"brownout"`
}

func (s *Server) handleOverload(w http.ResponseWriter, _ *http.Request) {
	var body overloadBody
	body.OverloadReport = telemetry.BuildOverloadReport(s.sched.FlightRecorder().Snapshot())
	snap := s.sched.Snapshot()
	body.Sched.Queued = snap.Queued
	body.Sched.Running = snap.Running
	body.Sched.Submitted = snap.Submitted
	body.Sched.LeasedBytes = int64(snap.LeasedBytes)
	body.Sched.BudgetBytes = int64(snap.BudgetBytes)
	body.Sched.DiskLeasedBytes = int64(snap.DiskLeasedBytes)
	body.Sched.DiskBudgetBytes = int64(snap.DiskBudgetBytes)
	body.Sched.Draining = snap.Draining
	body.Brownout.Level = int(snap.Brownout)
	body.Brownout.Name = snap.Brownout.String()
	body.Brownout.QueueDelayEWMAMS = float64(snap.QueueDelayEWMA.Nanoseconds()) / 1e6
	body.Brownout.PredictedStartMS = float64(snap.PredictedStart.Nanoseconds()) / 1e6
	body.Brownout.Shed = s.sched.ShedTotals()
	api.WriteJSON(w, http.StatusOK, body)
}
