package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"knlmlm/internal/wire"
)

// TestFetchOutcome serves fetch a result body and checks the verdict:
// once the server answered 200, a result that does not decode or is cut
// short is wrong, not merely failed.
func TestFetchOutcome(t *testing.T) {
	j := newInt64Job(rand.New(rand.NewSource(1)), 1000)
	keys, err := wire.Decode(bytes.NewReader(j.body), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(keys)
	frame := wire.Encode(nil, keys, 0)
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		want   outcome
	}{
		{"sorted", http.StatusOK, frame, okVerified},
		{"truncated cells", http.StatusOK, frame[:len(frame)/2], wrong},
		{"truncated trailer", http.StatusOK, frame[:len(frame)-1], wrong},
		{"garbled header", http.StatusOK, append([]byte("garbage!"), frame[8:]...), wrong},
		{"empty", http.StatusOK, nil, wrong},
		{"server error", http.StatusInternalServerError, []byte(`{"error":"boom","code":"internal"}`), failed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(tc.status)
				_, _ = w.Write(tc.body)
			}))
			defer srv.Close()
			c := newClient(1)
			defer c.close()
			r := &jobResult{job: j, id: "x", out: failed}
			err := c.fetch(context.Background(), srv.URL, r)
			if r.out != tc.want {
				t.Fatalf("outcome %v (err %v), want %v", r.out, err, tc.want)
			}
			if (err == nil) != (tc.want == okVerified) {
				t.Fatalf("err = %v for outcome %v", err, r.out)
			}
		})
	}
}
