// Package api is the HTTP protocol the sort service speaks, shared by a
// single node (internal/serve) and the cluster coordinator
// (internal/cluster): the request, job-status, error and health bodies,
// JSON/binary content negotiation, submit parsing and result streaming.
// Each tier keeps only its own glue — the node its scheduler, decode gate
// and debug routes, the coordinator its partitioning and fleet view — so
// a client cannot tell the tiers apart by how they parse or answer.
//
// Routes, common to both tiers:
//
//	POST   /v1/sort              submit (JSON body, or a binary wire body
//	                             with options on the query string)
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  sorted keys: chunked JSON array, or wire
//	                             frames under Accept: application/x-mlm-keys
//	DELETE /v1/jobs/{id}         cancel
//	GET    /healthz, /metrics
package api

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"knlmlm/internal/wire"
)

// Algorithm names a submit may carry; empty selects AlgMLMSort.
const (
	AlgMLMSort   = "MLM-sort"
	AlgMLMHybrid = "MLM-hybrid"
)

// SortRequest is the POST /v1/sort body.
type SortRequest struct {
	// Keys are the int64 keys to sort.
	Keys []int64 `json:"keys"`
	// KeyType names the key representation ("i64" default). The typed
	// kinds ("f64" raw IEEE-754 bit cells, "rec" interleaved key/payload
	// cell pairs) are binary-wire-only: JSON has no lossless carrier for
	// 64-bit float payloads or record pairs, so a JSON submit naming one
	// is a 400. On binary submits the field is implied by the
	// Content-Type kind parameter.
	KeyType string `json:"key_type,omitempty"`
	// Priority orders admission (higher sooner; default 0).
	Priority int `json:"priority,omitempty"`
	// DeadlineMS, when positive, is a start deadline relative to arrival.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Algorithm names the sort variant (AlgMLMSort default, AlgMLMHybrid
	// the hybrid-mode twin).
	Algorithm string `json:"algorithm,omitempty"`
	// MegachunkLen overrides automatic budget-aware megachunk sizing.
	MegachunkLen int `json:"megachunk_len,omitempty"`
	// Wait holds the response until the job is terminal (long poll).
	Wait bool `json:"wait,omitempty"`
}

// JobStatus is the wire form of a job on either tier. Every field past
// N is omitted when zero, so each tier's body carries only what it sets.
type JobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	N          int    `json:"n"`
	QueueWait  string `json:"queue_wait,omitempty"`
	LeaseBytes int64  `json:"lease_bytes,omitempty"`
	// KeyType is the job's key representation ("f64", "rec"); omitted
	// for plain int64 jobs.
	KeyType string `json:"key_type,omitempty"`
	// Spilled marks a spill-class job: its result is produced by a
	// consume-once streaming merge at ResultURL.
	Spilled        bool  `json:"spilled,omitempty"`
	DiskLeaseBytes int64 `json:"disk_lease_bytes,omitempty"`
	// Shed marks a job the scheduler itself evicted under overload
	// control (deadline infeasible, brownout) — distinct from a client
	// cancel and safe to retry later.
	Shed bool `json:"shed,omitempty"`
	// Parts, Retries, Skew and Resampled are the coordinator's partition
	// view: range partitions, failure-driven re-runs across them, the
	// worst partition's size over its target, and whether the splitter
	// sample was retaken.
	Parts     int     `json:"parts,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Skew      float64 `json:"skew,omitempty"`
	Resampled bool    `json:"resampled,omitempty"`
	Error     string  `json:"error,omitempty"`
	ResultURL string  `json:"result_url,omitempty"`
	Enqueued  string  `json:"enqueued,omitempty"`
	Started   string  `json:"started,omitempty"`
	Finished  string  `json:"finished,omitempty"`
}

// SetTimes fills the enqueue/start/finish stamps, leaving unreached
// (zero) instants out.
func (st *JobStatus) SetTimes(enq, started, fin time.Time) {
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.Enqueued, st.Started, st.Finished = stamp(enq), stamp(started), stamp(fin)
}

// JobURL and ResultURL are a job's status and result routes.
func JobURL(id string) string    { return "/v1/jobs/" + id }
func ResultURL(id string) string { return JobURL(id) + "/result" }

// ErrorBody is the wire form of every non-2xx response.
type ErrorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// PredictedWaitMS, on predicted-late overload rejections, is the
	// model-predicted start delay that sank the deadline.
	PredictedWaitMS int64 `json:"predicted_wait_ms,omitempty"`
}

// NodeHealth is a node's /healthz body.
type NodeHealth struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	LeasedBytes int64  `json:"leased_bytes"`
	BudgetBytes int64  `json:"budget_bytes"`
	// Disk-tier ledger state; zero when the spill class is disabled.
	DiskLeasedBytes int64 `json:"disk_leased_bytes,omitempty"`
	DiskBudgetBytes int64 `json:"disk_budget_bytes,omitempty"`
	// Brownout is the scheduler's overload degradation state: the level
	// name ("normal", "shed-spill", "shrink-batch", "critical-only"),
	// its numeric value, and the smoothed queue-delay signal driving it.
	// The endpoint stays 200 while browned out — the service is degraded
	// on purpose, not unhealthy, and load balancers must keep routing.
	Brownout         string  `json:"brownout"`
	BrownoutLevel    int     `json:"brownout_level"`
	QueueDelayEWMAMS float64 `json:"queue_delay_ewma_ms,omitempty"`
	// Capacity is the compact routing block a cluster coordinator polls:
	// everything a bandwidth-aware router needs to weight this node, in
	// one cheap GET instead of a /metrics scrape.
	Capacity Capacity `json:"capacity"`
}

// Capacity summarizes a node's headroom for an upstream router. The
// EWMA rates are the scheduler's blended Eq. 1-5 parameters (seed
// constants folded with autotuner measurements), per thread, so the
// poller can re-solve the model with this node's thread budget and
// derive a comparable predicted service rate per node.
type Capacity struct {
	// HeadroomBytes is the unleased remainder of the MCDRAM staging
	// budget — how much working set a new job could lease right now.
	HeadroomBytes int64 `json:"headroom_bytes"`
	QueueDepth    int   `json:"queue_depth"`
	BrownoutLevel int   `json:"brownout_level"`
	// EWMACopyBps/EWMACompBps are the per-thread copy and compute rates
	// (bytes/sec) the admission model currently runs on.
	EWMACopyBps float64 `json:"ewma_copy_bps"`
	EWMACompBps float64 `json:"ewma_comp_bps"`
	// Threads is the node's fair-shared thread budget.
	Threads int `json:"threads"`
	// PredictedStartMS is the model-predicted start delay a job admitted
	// now would see — the same figure PreAdmit sheds against.
	PredictedStartMS float64 `json:"predicted_start_ms"`
}

// WriteJSON answers with status code and v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and an ErrorBody carrying code and msg.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg, Code: code})
}

// NotFound is the answer to a job route naming an unknown job.
func NotFound(w http.ResponseWriter) {
	WriteError(w, http.StatusNotFound, "not-found", "unknown job")
}

// IsWireContentType matches a Content-Type header against the binary
// key-stream media type, ignoring parameters (kind, charset etc.).
func IsWireContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.ContentType)
}

// AcceptsWire reports whether the request's Accept list names the
// binary key stream. Anything else — absent header, */*, JSON — keeps
// the JSON default, so only clients that ask for frames get frames.
func AcceptsWire(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if IsWireContentType(part) {
			return true
		}
	}
	return false
}
