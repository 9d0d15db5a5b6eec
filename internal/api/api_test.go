package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"knlmlm/internal/mem"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/wire"
)

func submitReq(query, ctype string, body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/sort"+query, bytes.NewReader(body))
	r.Header.Set("Content-Type", ctype)
	return r
}

func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decode error body %q: %v", rec.Body.String(), err)
	}
	return eb.Code
}

// TestParseSubmitBodyLimit: every way a body can exceed the limit — a
// JSON body, a binary declared total, a binary stream longer than the
// limit — answers 413 "too-large".
func TestParseSubmitBodyLimit(t *testing.T) {
	const limit = 64
	cases := map[string]*http.Request{
		"json body":      submitReq("", "application/json", []byte(`{"keys":[`+strings.Repeat("1,", 64)+`1]}`)),
		"declared total": submitReq("", wire.ContentType, wire.Encode(nil, make([]int64, limit/8+1), 0)),
		"binary stream":  submitReq("", wire.ContentType, wire.Encode(nil, make([]int64, limit/8), 0)),
	}
	for name, r := range cases {
		rec := httptest.NewRecorder()
		if _, ok := ParseSubmit(rec, r, limit, nil); ok {
			t.Fatalf("%s: accepted an over-limit body", name)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, rec) != "too-large" {
			t.Errorf("%s: HTTP %d %s, want 413 too-large", name, rec.Code, rec.Body)
		}
	}
}

// TestParseSubmitBinaryOptions: a binary submit reads its options from
// the query, falls back to X-Deadline-Ms, takes its kind from the
// stream, and decodes into the caller's pool.
func TestParseSubmitBinaryOptions(t *testing.T) {
	pool := mem.NewSlicePool()
	cells := []int64{4, 3, 2, 1}
	r := submitReq("?priority=3&megachunk_len=1024&algorithm=MLM-hybrid&wait=true",
		wire.ContentTypeFor(wire.KindFloat64), wire.EncodeKind(nil, wire.KindFloat64, cells, 0))
	r.Header.Set("X-Deadline-Ms", "250")
	sub, ok := ParseSubmit(httptest.NewRecorder(), r, 1<<20, pool)
	if !ok {
		t.Fatal("valid binary submit refused")
	}
	want := SortRequest{Keys: cells, Priority: 3, DeadlineMS: 250,
		Algorithm: AlgMLMHybrid, MegachunkLen: 1024, Wait: true}
	got := sub.SortRequest
	if !sub.Binary || sub.Kind != wire.KindFloat64 || sub.Alg != mlmsort.MLMHybrid ||
		got.Priority != want.Priority || got.DeadlineMS != want.DeadlineMS ||
		got.Algorithm != want.Algorithm || got.MegachunkLen != want.MegachunkLen || !got.Wait {
		t.Fatalf("parsed %+v (kind %v), want %+v", sub, sub.Kind, want)
	}
	if cap(sub.Keys) != 4 || pool.Stats().Gets != 1 {
		t.Fatalf("keys not drawn from the pool: cap %d, %+v", cap(sub.Keys), pool.Stats())
	}

	// A refusal after the body decoded hands the buffer back.
	r = submitReq("?algorithm=bogus", wire.ContentType, wire.Encode(nil, cells, 0))
	if _, ok := ParseSubmit(httptest.NewRecorder(), r, 1<<20, pool); ok {
		t.Fatal("unknown algorithm accepted")
	}
	if pool.Stats().Puts != 1 {
		t.Fatalf("refused submit did not return its buffer: %+v", pool.Stats())
	}
}

// TestWriteResultTruncates: a stream that fails after its first batch
// can only leave a truncated body, and the caller gets nothing to map.
func TestWriteResultTruncates(t *testing.T) {
	rec := httptest.NewRecorder()
	err := WriteResult(rec, httptest.NewRequest(http.MethodGet, "/", nil), Result{N: 2,
		Stream: func(_ context.Context, emit func([]int64) error) (int64, error) {
			_ = emit([]int64{1})
			return 1, errors.New("boom")
		}})
	if err != nil || rec.Code != http.StatusOK || rec.Body.String() != "[1" {
		t.Fatalf("mid-stream failure: err %v, HTTP %d, body %q (want a truncated array)", err, rec.Code, rec.Body)
	}
}

// TestJobStatusBytes pins each tier's status body: the union type omits
// the other tier's fields, so neither tier's bytes changed.
func TestJobStatusBytes(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	node := JobStatus{ID: "job-000001", State: "done", N: 3, QueueWait: "1ms", Spilled: true, ResultURL: ResultURL("job-000001")}
	node.SetTimes(at, at, time.Time{})
	coord := JobStatus{ID: "c00000001", State: "running", N: 3, Parts: 2, Skew: 1.5}
	coord.SetTimes(at, time.Time{}, time.Time{})
	for st, want := range map[*JobStatus]string{
		&node: `{"id":"job-000001","state":"done","n":3,"queue_wait":"1ms","spilled":true,` +
			`"result_url":"/v1/jobs/job-000001/result","enqueued":"2026-01-02T03:04:05Z","started":"2026-01-02T03:04:05Z"}`,
		&coord: `{"id":"c00000001","state":"running","n":3,"parts":2,"skew":1.5,"enqueued":"2026-01-02T03:04:05Z"}`,
	} {
		if raw, _ := json.Marshal(st); string(raw) != want {
			t.Errorf("status body\n got %s\nwant %s", raw, want)
		}
	}
}
