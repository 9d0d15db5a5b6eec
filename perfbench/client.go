package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"time"

	"knlmlm/internal/wire"
)

// outcome classifies one attempted job.
type outcome int

const (
	okVerified outcome = iota
	rejected           // refused at submit (429, 413, 503)
	shed               // admitted, then shed by the scheduler
	failed             // any error before a 200 result: transport, server failure, bad status
	wrong              // the server answered 200 with a result that does not decode, is cut short, or is not a sorted permutation of the input
)

func (o outcome) String() string {
	return [...]string{"ok", "rejected", "shed", "failed", "wrong"}[o]
}

// jobResult is the client's record of one job.
type jobResult struct {
	job   *job
	id    string
	due   time.Time // when the closed loop decided to send
	late  time.Duration
	sent  time.Time // connection acquired for the submit
	done  time.Time // last result byte received
	out   outcome
	err   error
	trace uint64 // span trace id (traced runs)
	// Coordinator job status fields (cluster-2).
	parts   int
	skew    float64
	retries int
	srvWall time.Duration // server-reported enqueue -> finish
	// cpuDue is the CPU counters at due; stolen is the share of the CPU
	// time wanted between due and done that went to steal.
	cpuDue cpuTicks
	stolen float64
}

// newJobResult starts the record of one job that is due now.
func newJobResult(j *job) *jobResult {
	return &jobResult{job: j, due: time.Now(), cpuDue: readCPUTicks(), out: failed}
}

// wallMS is due -> last result byte on the wall clock; +Inf for a job
// that did not return a verified result, so refused and failed jobs
// miss every latency limit.
func (r *jobResult) wallMS() float64 {
	if r.out != okVerified {
		return inf
	}
	return float64(r.done.Sub(r.due).Nanoseconds()) / 1e6
}

// latencyMS is the job's latency net of steal (see steal.go): its wall
// time scaled by the share of wanted CPU time the machine got.
func (r *jobResult) latencyMS() float64 {
	return r.wallMS() * (1 - r.stolen)
}

// client speaks the service's HTTP protocol over at most conns
// connections.
type client struct {
	hc      *http.Client
	scratch sync.Pool // *scratch
}

type scratch struct {
	cells []int64
	seen  []bool
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	c := &client{hc: &http.Client{Transport: tr}}
	c.scratch.New = func() any { return &scratch{} }
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// status is the subset of a job status body the benchmark reads, from
// either a backend or the coordinator.
type status struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Error   string  `json:"error"`
	Code    string  `json:"code"`
	Shed    bool    `json:"shed"`
	Parts   int     `json:"parts"`
	Skew    float64 `json:"skew"`
	Retries int     `json:"retries"`
	// Enqueued and Finished bound the server's own wall time for the job.
	Enqueued time.Time `json:"enqueued"`
	Finished time.Time `json:"finished"`
}

// submit posts the job and holds the request until the job is
// terminal. It records when the request got its connection in r.sent.
func (c *client) submit(ctx context.Context, base string, r *jobResult) (status, int, error) {
	url := base + "/v1/sort?wait=1"
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { r.sent = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, url, bytes.NewReader(r.job.body))
	if err != nil {
		return status{}, 0, err
	}
	req.Header.Set("Content-Type", r.job.ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return status{}, 0, err
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("submit answered %d with an unreadable body: %w", resp.StatusCode, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return st, resp.StatusCode, nil
}

// fetch downloads the job's result, marks the time its last byte
// arrived, and verifies it. An error before the server answers 200
// leaves the job failed (or shed); once it answered 200, a result that
// does not decode, is cut short, or fails the check makes the job wrong.
func (c *client) fetch(ctx context.Context, base string, r *jobResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+r.id+"/result", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", r.job.ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var st status
		_ = json.NewDecoder(resp.Body).Decode(&st)
		_, _ = io.Copy(io.Discard, resp.Body)
		r.out = failed
		if strings.HasPrefix(st.Code, "job-") && strings.Contains(st.Error, "shed") {
			r.out = shed
		}
		return fmt.Errorf("result answered %d %s: %s", resp.StatusCode, st.Code, st.Error)
	}
	s := c.scratch.Get().(*scratch)
	defer c.scratch.Put(s)
	if err := s.readResult(resp.Body, r); err != nil {
		r.out = wrong
		return err
	}
	r.out = okVerified
	return nil
}

// readResult decodes a result frame into the scratch cells, marks when
// its last byte arrived, and checks it against the job's input.
func (s *scratch) readResult(body io.Reader, r *jobResult) error {
	fr, err := wire.NewReaderAnyKind(body)
	if err != nil {
		return fmt.Errorf("read result: %w", err)
	}
	total := int(fr.Total())
	if total > 1<<28 {
		return fmt.Errorf("result declares %d cells", total)
	}
	if cap(s.cells) < total {
		s.cells = make([]int64, total)
	}
	cells := s.cells[:total]
	if err := fr.ReadInto(cells); err != nil {
		return fmt.Errorf("read result: %w", err)
	}
	if err := fr.Finish(); err != nil {
		return fmt.Errorf("read result: %w", err)
	}
	r.done = time.Now()
	r.stolen = stealShare(r.cpuDue, readCPUTicks())
	if !r.job.rec {
		return checkInt64(r.job, cells)
	}
	if len(s.seen) < r.job.n {
		s.seen = make([]bool, r.job.n)
	}
	return checkRecords(r.job, cells, s.seen)
}

// getJSON fetches url and decodes its JSON body into v.
func (c *client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getText fetches url as text.
func (c *client) getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return string(b), nil
}

// classifySubmit maps a submit's HTTP answer onto an outcome; ok means
// the job was accepted.
func classifySubmit(code int, st status) (outcome, bool) {
	switch {
	case code == http.StatusOK && st.State == "done":
		return okVerified, true
	case code == http.StatusTooManyRequests || code == http.StatusRequestEntityTooLarge || code == http.StatusServiceUnavailable:
		return rejected, false
	case st.Shed:
		return shed, false
	}
	return failed, false
}
