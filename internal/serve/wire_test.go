package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"knlmlm/internal/api"
	"knlmlm/internal/mem"
	"knlmlm/internal/sched"
	"knlmlm/internal/wire"
	"knlmlm/internal/workload"
)

// postWire submits keys as an application/x-mlm-keys frame stream.
// query carries the envelope options ("?wait=1&priority=3" etc.).
func (ts *testServer) postWire(t *testing.T, keys []int64, query string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.http.URL+"/v1/sort"+query,
		bytes.NewReader(wire.Encode(nil, keys, 0)))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sort (binary): %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// getWire downloads a result with Accept: application/x-mlm-keys and
// decodes the frame stream.
func (ts *testServer) getWire(t *testing.T, path string) (*http.Response, []int64, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.http.URL+path, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return resp, nil, &httpError{code: resp.StatusCode, body: string(out)}
	}
	keys, err := wire.Decode(resp.Body, 0, nil)
	return resp, keys, err
}

type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return e.body }

func sorted(keys []int64) []int64 {
	out := append([]int64(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestWireRoundTrip drives the full binary path for an in-memory job:
// frame-stream submit (options on the query string), long-poll wait,
// frame-stream download, and equality with the expected sorted order.
func TestWireRoundTrip(t *testing.T) {
	ts := newTestServer(t, nil)
	keys := workload.Generate(workload.Random, 10000, 20260807)
	want := sorted(keys)

	resp, raw := ts.postWire(t, keys, "?wait=1&priority=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.State != "done" || st.N != len(keys) {
		t.Fatalf("status = %+v, want done with %d keys", st, len(keys))
	}

	dresp, got, err := ts.getWire(t, st.ResultURL)
	if err != nil {
		t.Fatalf("binary download: %v", err)
	}
	if ct := dresp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.ContentType)
	}
	if dresp.Header.Get("X-Sort-Elements") != "10000" {
		t.Fatalf("X-Sort-Elements = %q", dresp.Header.Get("X-Sort-Elements"))
	}
	if len(got) != len(want) {
		t.Fatalf("downloaded %d of %d keys", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestWireNegotiationMatrix pins the four submit/download encoding
// combinations to one another: either wire direction must yield exactly
// the result the all-JSON path yields.
func TestWireNegotiationMatrix(t *testing.T) {
	ts := newTestServer(t, nil)
	keys := workload.Generate(workload.Random, 5000, 7)
	want := sorted(keys)

	submit := func(t *testing.T, binary bool) api.JobStatus {
		t.Helper()
		var resp *http.Response
		var raw []byte
		if binary {
			resp, raw = ts.postWire(t, keys, "?wait=1")
		} else {
			resp, raw = ts.post(t, api.SortRequest{Keys: keys, Wait: true})
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit(binary=%v): HTTP %d: %s", binary, resp.StatusCode, raw)
		}
		return decodeStatus(t, raw)
	}
	downloadJSON := func(t *testing.T, url string) []int64 {
		t.Helper()
		resp, raw := ts.get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("JSON download: HTTP %d: %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var got []int64
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("decode JSON result: %v", err)
		}
		return got
	}
	for _, tc := range []struct {
		name           string
		binUp, binDown bool
	}{
		{"json-up-json-down", false, false},
		{"json-up-wire-down", false, true},
		{"wire-up-json-down", true, false},
		{"wire-up-wire-down", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := submit(t, tc.binUp)
			var got []int64
			if tc.binDown {
				var err error
				_, got, err = ts.getWire(t, st.ResultURL)
				if err != nil {
					t.Fatalf("wire download: %v", err)
				}
			} else {
				got = downloadJSON(t, st.ResultURL)
			}
			if len(got) != len(want) {
				t.Fatalf("%d of %d keys", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("key %d: %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestWireSpilledDownload streams a spill-class merge as frames: the
// deferred k-way merge feeds the wire encoder batch by batch, the
// stream carries the spilled marker, and the download stays
// consume-once.
func TestWireSpilledDownload(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, spillMutate(dir))

	const n = 60000
	keys := workload.Generate(workload.Random, n, 42)
	want := sorted(keys)

	resp, raw := ts.postWire(t, keys, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if !st.Spilled {
		t.Fatalf("job not spilled: %+v", st)
	}

	dresp, got, err := ts.getWire(t, st.ResultURL)
	if err != nil {
		t.Fatalf("binary spilled download: %v", err)
	}
	if dresp.Header.Get("X-Sort-Spilled") != "true" {
		t.Fatal("missing X-Sort-Spilled header on wire download")
	}
	if len(got) != n {
		t.Fatalf("downloaded %d of %d keys", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: %d, want %d", i, got[i], want[i])
		}
	}
	// Consume-once holds for the wire encoding too.
	if _, _, err := ts.getWire(t, st.ResultURL); err == nil {
		t.Fatal("second download of a spilled result succeeded")
	} else if he := err.(*httpError); he.code != http.StatusGone {
		t.Fatalf("second download: HTTP %d, want 410", he.code)
	}
}

// TestWireSubmitErrors covers the binary decode failure surface: alien
// magic, empty streams, hostile declared totals, truncation, and bad
// query options must all be refused before any job is admitted.
func TestWireSubmitErrors(t *testing.T) {
	ts := newTestServer(t, nil)
	postRaw := func(body []byte, query string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.http.URL+"/v1/sort"+query, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}
	enc := wire.Encode(nil, []int64{3, 1, 2}, 0)

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, enc...)
		bad[0] = 'J'
		if resp, raw := postRaw(bad, ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		if resp, raw := postRaw(wire.Encode(nil, nil, 0), ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if resp, raw := postRaw(enc[:len(enc)-6], ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("hostile total", func(t *testing.T) {
		// A header declaring 2^40 keys must be refused by the declared-total
		// bound before any buffer is sized, not by reading the (absent) body.
		hdr := []byte{'M', 'L', 'K', '1', 0, 0, 0, 0, 0, 1, 0, 0}
		if resp, raw := postRaw(hdr, ""); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("negative total", func(t *testing.T) {
		// A header declaring 2^63 keys reads as a negative int64 total; it
		// must be refused as malformed, not reach a buffer allocation.
		hdr := []byte{'M', 'L', 'K', '1', 0, 0, 0, 0, 0, 0, 0, 0x80}
		if resp, raw := postRaw(hdr, ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("bad query option", func(t *testing.T) {
		if resp, raw := postRaw(enc, "?priority=soon"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("bad algorithm", func(t *testing.T) {
		if resp, raw := postRaw(enc, "?algorithm=quicksort"); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
	})
}

// TestJSONTrailingGarbageRejected: a submit body holding a second JSON
// value after the request object is malformed — 400, not a silent
// accept of the first value. Trailing whitespace stays legal.
func TestJSONTrailingGarbageRejected(t *testing.T) {
	ts := newTestServer(t, nil)
	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.http.URL+"/v1/sort", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}
	if resp, raw := post(`{"keys":[1]}{"evil":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing object: HTTP %d: %s", resp.StatusCode, raw)
	}
	if resp, raw := post(`{"keys":[1]} [2]`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing array: HTTP %d: %s", resp.StatusCode, raw)
	}
	if resp, raw := post("{\"keys\":[3,1,2],\"wait\":true}\n  \t"); resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace refused: HTTP %d: %s", resp.StatusCode, raw)
	}
}

// TestWireSubmitRecyclesPool closes the buffer loop end to end over
// HTTP: a binary upload decodes into the scheduler's key pool, and
// retention eviction returns the buffer, so a steady upload stream
// reuses memory instead of allocating per request.
func TestWireSubmitRecyclesPool(t *testing.T) {
	pool := mem.NewSlicePool()
	ts := newTestServer(t, func(cfg *sched.Config) {
		cfg.KeyPool = pool
		cfg.RetainJobs = 1
	})
	const n = 4096
	for i := 0; i < 3; i++ {
		keys := workload.Generate(workload.Random, n, int64(i))
		resp, raw := ts.postWire(t, keys, "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Fatalf("no pool hits across a steady binary upload stream: %+v", st)
	}
}
