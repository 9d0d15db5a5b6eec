package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"knlmlm/internal/api"
	"knlmlm/internal/exec"
	"knlmlm/internal/sched"
	"knlmlm/internal/serve"
	"knlmlm/internal/telemetry"
	"knlmlm/internal/units"
	"knlmlm/internal/wire"
)

// bootGatedBackend runs a node whose every Compute stage blocks until
// open is called, so a job submitted to it stays non-terminal on demand.
func bootGatedBackend(t *testing.T) (hs *httptest.Server, open func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	reg := telemetry.NewRegistry()
	sc, err := sched.New(sched.Config{
		MCDRAMBudget: units.Bytes(8 << 20),
		Workers:      2,
		QueueLimit:   64,
		TotalThreads: 8,
		Registry:     reg,
		Wrap: func(s exec.Stages) exec.Stages {
			inner := s.Compute
			s.Compute = func(i int, buf []int64) error {
				<-gate
				return inner(i, buf)
			}
			return s
		},
	})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(sc.Close)
	srv, err := serve.New(serve.Config{Scheduler: sc, Registry: reg})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs = httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(open) // runs before hs.Close: in-flight sorts must finish
	return hs, open
}

// TestProtocolConformance runs one table of protocol requests against a
// node and against a coordinator over that node: every row must get the
// same status and error code from both tiers, and no rejected submit may
// reach the coordinator's partition pipeline.
func TestProtocolConformance(t *testing.T) {
	node, open := bootGatedBackend(t)
	coord, err := New(Config{Backends: []string{node.URL}, PollInterval: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(coord.Close)
	csrv, err := NewServer(ServerConfig{Coordinator: coord})
	if err != nil {
		t.Fatalf("cluster.NewServer: %v", err)
	}
	front := httptest.NewServer(csrv)
	t.Cleanup(front.Close)

	do := func(base, method, path, ctype string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// One job per tier held non-terminal behind the node's gate.
	pending := map[string]string{}
	for _, base := range []string{node.URL, front.URL} {
		code, raw := do(base, http.MethodPost, "/v1/sort", "application/json", []byte(`{"keys":[5,3,1,4,2]}`))
		var st api.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil || code != http.StatusAccepted {
			t.Fatalf("pending submit to %s: HTTP %d: %s", base, code, raw)
		}
		pending[base] = st.ID
	}
	// The coordinator partitions its job on a goroutine after the 202;
	// wait until it has, so the counter snapshot below includes the
	// pending job's partitions.
	pj, ok := coord.Lookup(pending[front.URL])
	if !ok {
		t.Fatalf("pending coordinator job %s not found", pending[front.URL])
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		pj.mu.Lock()
		n := len(pj.parts)
		pj.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pending coordinator job never partitioned")
		}
	}
	retries, partitions, jobs := coord.m.retries.Value(), coord.m.partitions.Value(), coord.m.jobs.Value()

	const js = "application/json"
	enc := wire.Encode(nil, []int64{3, 1, 2}, 0)
	hostile := []byte{'M', 'L', 'K', '1', 0, 0, 0, 0, 0, 1, 0, 0}     // declares 2^40 keys
	negative := []byte{'M', 'L', 'K', '1', 0, 0, 0, 0, 0, 0, 0, 0x80} // declares 2^63 keys
	rows := []struct {
		name, method, path, ctype string
		body                      []byte
		status                    int
		code                      string
	}{
		{"malformed JSON", "POST", "/v1/sort", js, []byte("{not json"), 400, "bad-request"},
		{"trailing data", "POST", "/v1/sort", js, []byte(`{"keys":[1]}{"evil":1}`), 400, "bad-request"},
		{"empty keys", "POST", "/v1/sort", js, []byte(`{"keys":[]}`), 400, "bad-request"},
		{"non-numeric priority", "POST", "/v1/sort?priority=soon", wire.ContentType, enc, 400, "bad-request"},
		{"non-numeric deadline_ms", "POST", "/v1/sort?deadline_ms=later", wire.ContentType, enc, 400, "bad-request"},
		{"non-numeric megachunk_len", "POST", "/v1/sort?megachunk_len=big", wire.ContentType, enc, 400, "bad-request"},
		{"unknown algorithm", "POST", "/v1/sort", js, []byte(`{"keys":[3,1,2],"algorithm":"bogus"}`), 400, "bad-request"},
		{"unknown algorithm (binary)", "POST", "/v1/sort?algorithm=bogus", wire.ContentType, enc, 400, "bad-request"},
		{"JSON key_type f64", "POST", "/v1/sort", js, []byte(`{"keys":[3,1,2],"key_type":"f64"}`), 400, "bad-request"},
		{"declared total over limit", "POST", "/v1/sort", wire.ContentType, hostile, 413, "too-large"},
		{"declared total 2^63", "POST", "/v1/sort", wire.ContentType, negative, 400, "bad-request"},
		{"unknown job status", "GET", "/v1/jobs/nope", "", nil, 404, "not-found"},
		{"unknown job result", "GET", "/v1/jobs/nope/result", "", nil, 404, "not-found"},
		{"unknown job cancel", "DELETE", "/v1/jobs/nope", "", nil, 404, "not-found"},
		{"result before terminal", "GET", "/v1/jobs/{pending}/result", "", nil, 409, "not-ready"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for tier, base := range map[string]string{"node": node.URL, "coordinator": front.URL} {
				path := strings.Replace(row.path, "{pending}", pending[base], 1)
				status, raw := do(base, row.method, path, row.ctype, row.body)
				var eb api.ErrorBody
				_ = json.Unmarshal(raw, &eb)
				if status != row.status || eb.Code != row.code {
					t.Errorf("%s: HTTP %d code %q, want %d %q: %s", tier, status, eb.Code, row.status, row.code, raw)
				}
			}
		})
	}
	if got := coord.m.retries.Value(); got != retries {
		t.Errorf("cluster_partition_retries_total moved %d -> %d on rejected submits", retries, got)
	}
	if got := coord.m.partitions.Value(); got != partitions {
		t.Errorf("cluster_partitions_total moved %d -> %d on rejected submits", partitions, got)
	}
	if got := coord.m.jobs.Value(); got != jobs {
		t.Errorf("cluster_jobs_total moved %d -> %d on rejected submits", jobs, got)
	}

	open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pj.Wait(ctx); err != nil {
		t.Fatalf("pending coordinator job never finished: %v", err)
	}
}
