package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"knlmlm/internal/mem"
	"knlmlm/internal/mlmsort"
	"knlmlm/internal/wire"
)

// Submit is a parsed, validated POST /v1/sort.
type Submit struct {
	SortRequest
	// Kind is the key kind: the stream's on a binary submit, always
	// wire.KindInt64 on a JSON one. It is authoritative; KeyType is only
	// the JSON field, checked and then left as sent.
	Kind wire.Kind
	// Alg is the sort variant SortRequest.Algorithm names.
	Alg mlmsort.Algorithm
	// Binary marks a wire-format body; its Keys came from the pool
	// handed to ParseSubmit.
	Binary bool
}

// errTooLarge marks a body refused for its size (413, "too-large").
var errTooLarge = errors.New("too large")

// ParseSubmit decodes and validates a submit body of at most maxBody
// bytes. A JSON body is one SortRequest object and nothing after it. A
// binary body (Content-Type application/x-mlm-keys) is a wire frame
// stream whose header carries the exact element count, so the key
// buffer is sized once from pool — bounds-checked against maxBody —
// before the first payload byte lands, and on the zero-copy path the
// socket bytes are read directly into []int64 memory; a nil pool means
// a plain make. With no JSON envelope, a binary submit's options ride
// query parameters (priority, deadline_ms, algorithm, megachunk_len,
// wait), and an X-Deadline-Ms header doubles as deadline_ms when the
// query omits it.
//
// On failure ParseSubmit has already answered — 413 "too-large" for a
// body over the limit, 400 "bad-request" otherwise — and returned any
// pooled buffer, and ok is false. On success the caller owns Keys.
func ParseSubmit(w http.ResponseWriter, r *http.Request, maxBody int64, pool *mem.SlicePool) (sub Submit, ok bool) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	var err error
	if IsWireContentType(r.Header.Get("Content-Type")) {
		sub.Binary = true
		err = decodeBinary(&sub, r, body, maxBody, pool)
	} else {
		err = decodeJSON(&sub.SortRequest, body)
	}
	if err == nil {
		err = sub.validate()
	}
	if err == nil {
		return sub, true
	}
	if sub.Binary && pool != nil {
		pool.Put(sub.Keys)
	}
	var tooBig *http.MaxBytesError
	if errors.Is(err, errTooLarge) || errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "too-large", err.Error())
	} else {
		WriteError(w, http.StatusBadRequest, "bad-request", err.Error())
	}
	return Submit{}, false
}

func decodeJSON(req *SortRequest, body io.Reader) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// One JSON value is the whole body: trailing non-whitespace (a second
	// object, smuggled garbage) is a malformed request, not something to
	// silently ignore.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func decodeBinary(sub *Submit, r *http.Request, body io.Reader, maxBody int64, pool *mem.SlicePool) error {
	q := r.URL.Query()
	num := func(name string, dst *int64) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad %s: %s", name, v)
			}
			*dst = n
		}
		return nil
	}
	var prio, mcl int64
	if err := errors.Join(num("priority", &prio), num("deadline_ms", &sub.DeadlineMS), num("megachunk_len", &mcl)); err != nil {
		return err
	}
	sub.Priority, sub.MegachunkLen = int(prio), int(mcl)
	sub.Algorithm = q.Get("algorithm")
	sub.Wait = q.Get("wait") == "1" || strings.EqualFold(q.Get("wait"), "true")
	if sub.DeadlineMS == 0 {
		if ms, err := strconv.ParseInt(r.Header.Get("X-Deadline-Ms"), 10, 64); err == nil && ms > 0 {
			sub.DeadlineMS = ms
		}
	}
	kind, ok := wire.KindFromContentType(r.Header.Get("Content-Type"))
	if !ok {
		return errors.New("unknown key kind in Content-Type " + r.Header.Get("Content-Type"))
	}
	fr, err := wire.NewReaderAnyKind(body)
	if err != nil {
		return fmt.Errorf("bad binary body: %w", err)
	}
	if fr.Kind() != kind {
		// The stream magic is authoritative; a mismatched Content-Type
		// means a proxy rewrote headers or the client lied — either way
		// the bytes cannot be interpreted as declared.
		return fmt.Errorf("stream kind %v does not match Content-Type kind %v", fr.Kind(), kind)
	}
	sub.Kind = kind
	total := fr.Total() // never negative: the reader refuses totals >= 2^63
	if total > maxBody/8 {
		return fmt.Errorf("%w: declared %d keys exceeds body limit", errTooLarge, total)
	}
	if pool != nil {
		sub.Keys = pool.Get(int(total))
	}
	if int64(len(sub.Keys)) != total {
		sub.Keys = make([]int64, total)
	}
	if err := fr.ReadInto(sub.Keys); err != nil {
		return fmt.Errorf("bad binary body: %w", err)
	}
	return nil
}

// validate checks the options both encodings share and resolves the
// algorithm name. Typed keys (f64, rec) exist only on the binary wire
// path, where the Content-Type kind names them: a JSON array of integers
// cannot carry float bits or key/payload pairing without inventing a
// second in-band encoding, so a JSON submit naming a typed key is a
// client error, not something to coerce.
func (sub *Submit) validate() error {
	if len(sub.Keys) == 0 {
		return errors.New("keys must be non-empty")
	}
	switch sub.Algorithm {
	case "", AlgMLMSort:
		sub.Alg = mlmsort.MLMSort
	case AlgMLMHybrid:
		sub.Alg = mlmsort.MLMHybrid
	default:
		return fmt.Errorf("unknown algorithm %q (want %s or %s)", sub.Algorithm, AlgMLMSort, AlgMLMHybrid)
	}
	switch sub.KeyType {
	case "", "i64":
	case "f64", "rec":
		return fmt.Errorf("key_type %q requires a binary submit (Content-Type %s; kind=%s)", sub.KeyType, wire.ContentType, sub.KeyType)
	default:
		return fmt.Errorf("unknown key_type %q", sub.KeyType)
	}
	return nil
}
