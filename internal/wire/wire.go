// Package wire is the binary wire format of the sort service: a
// little-endian, length-prefixed frame stream carrying an []int64 key
// sequence. It exists because JSON framing was the service's slowest
// "memory tier" — BENCH_PR5 measured streamed downloads at ~58 MB/s on a
// box that reads spill runs at multiple GB/s; every byte of a key was
// costing ~2.5 bytes of decimal text plus a strconv round trip. On
// little-endian platforms (every target the service runs on) the frame
// payload is the exact in-memory representation of the keys, so encoding
// is a memmove and decoding lands socket bytes directly into the final
// []int64 — no intermediate allocation, no per-element work.
//
// Stream layout (all integers little-endian):
//
//	+----------+----------------+   stream header (12 bytes)
//	| "MLK1"   | total uint64   |
//	+----------+----------------+
//	| count uint32 | count×8 B  |   frame: element count, then payload
//	+----------+----------------+
//	|     ... more frames ...   |
//	+---------------------------+
//	| count = 0                 |   end-of-stream marker
//	+---------------------------+
//
// The header's total is the exact element count of the whole stream, so
// a receiver can bound-check and allocate its destination once (e.g.
// from a mem.SlicePool) before the first payload byte arrives. Frame
// counts must sum to the total, and the zero-count end marker
// distinguishes a complete stream from a truncated one — the binary
// analog of JSON's closing bracket.
//
// The zero-copy []int64 ↔ []byte conversion is selected per platform by
// build tags; the portable fallback (always used under the wire_purego
// tag, and on big-endian targets) produces byte-identical streams
// through encoding/binary.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ContentType is the MIME type of the frame stream, used for HTTP
// content negotiation (Content-Type on uploads, Accept on downloads).
const ContentType = "application/x-mlm-keys"

const (
	// headerLen is the stream header size: 4-byte magic + uint64 total.
	headerLen = 12
	// frameHeaderLen is the per-frame prefix: a uint32 element count.
	frameHeaderLen = 4
	// DefaultFrameElems is the default frame granularity (256 KiB of
	// payload): large enough to amortize the 4-byte prefix, the write
	// syscall, and the reader's per-frame bookkeeping — measured on the
	// BENCH_PR8 loopback path, 64 KiB frames roughly halve download
	// throughput — while staying small enough to keep streaming latency
	// and flush granularity low.
	DefaultFrameElems = 32768
	// MaxFrameElems bounds a single frame (32 MiB of payload) so a
	// hostile count can never force a pathological single read.
	MaxFrameElems = 4 << 20
)

// magic opens every int64 stream; the trailing '1' is the format
// version. Typed streams substitute the kind byte (see kind.go).
var magic = [4]byte{'M', 'L', 'K', '1'}

// magicPrefix is the kind-independent prefix shared by every stream
// magic, letting error paths distinguish "wrong kind" from "not wire".
var magicPrefix = [3]byte{'M', 'L', 'K'}

// ErrWrongKind: the stream is a valid wire stream of a different kind
// than the reader accepts.
var ErrWrongKind = errors.New("wire: stream kind mismatch")

// ErrOddRecordStream: a record stream declared an odd cell total — a
// record split in half is never valid.
var ErrOddRecordStream = errors.New("wire: record stream with odd cell total")

// Sentinel decode errors, wrapped with detail by the Reader.
var (
	// ErrBadMagic: the stream does not open with the MLK1 header.
	ErrBadMagic = errors.New("wire: bad stream magic")
	// ErrTruncated: the stream ended before its declared content.
	ErrTruncated = errors.New("wire: truncated stream")
	// ErrFrameOverrun: a frame's count overruns the declared total or
	// MaxFrameElems, or the declared total exceeds math.MaxInt64.
	ErrFrameOverrun = errors.New("wire: frame overruns declared total")
	// ErrTrailingData: bytes follow the end-of-stream marker.
	ErrTrailingData = errors.New("wire: trailing data after end of stream")
	// ErrShortStream: the end-of-stream marker arrived before the
	// declared total was delivered.
	ErrShortStream = errors.New("wire: stream ended short of declared total")
)

// EncodedLen reports the exact encoded byte size of an n-element stream
// at the given frame granularity (header + full and partial frames +
// end marker).
func EncodedLen(n, frameElems int) int {
	if frameElems <= 0 {
		frameElems = DefaultFrameElems
	}
	frames := n / frameElems
	if n%frameElems != 0 {
		frames++
	}
	return headerLen + frames*frameHeaderLen + n*8 + frameHeaderLen
}

// ZeroCopy reports whether this build reinterprets []int64 memory
// directly as wire bytes (little-endian platform, wire_purego unset).
// The encoded bytes are identical either way.
func ZeroCopy() bool { return zeroCopy }

// Writer encodes a key sequence as one frame stream. Frames are cut at
// fixed offsets — each holds frameElems elements but the last — so the
// stream's bytes depend only on the sequence, never on how it was split
// across Write calls: a frame may straddle two calls, its prefix sent
// with its first element and its payload written as it arrives. Close
// writes the end-of-stream marker and verifies the declared total was
// delivered. Not safe for concurrent use.
type Writer struct {
	w          io.Writer
	frameElems int
	kind       Kind
	total      uint64
	written    uint64
	frameLeft  int // elements the open frame's prefix announced but not yet written
	headerSent bool
	closed     bool
	// hdr backs header/frame-prefix writes; scratch backs the fallback
	// encode path (lazily sized to one frame).
	hdr     [headerLen]byte
	scratch []byte
}

// NewWriter starts an int64 stream of exactly total elements.
// frameElems <= 0 selects DefaultFrameElems; larger frames are capped at
// MaxFrameElems. The stream header is written lazily with the first
// Write (or Close), so constructing a Writer performs no IO.
func NewWriter(w io.Writer, total int, frameElems int) *Writer {
	return NewWriterKind(w, KindInt64, total, frameElems)
}

// NewWriterKind starts a stream of the given kind and exactly total
// payload cells (for KindRecord that is 2x the record count, and must be
// even — an odd total panics, since the caller is about to corrupt the
// stream). The payload cells themselves are written with Write exactly
// as for an int64 stream: float64 keys as their IEEE bits, records as
// interleaved key/payload cells.
func NewWriterKind(w io.Writer, kind Kind, total int, frameElems int) *Writer {
	if !kind.Valid() {
		panic("wire: invalid stream kind")
	}
	if kind == KindRecord && total%2 != 0 {
		panic("wire: record stream with odd cell total")
	}
	if frameElems <= 0 {
		frameElems = DefaultFrameElems
	}
	if frameElems > MaxFrameElems {
		frameElems = MaxFrameElems
	}
	return &Writer{w: w, frameElems: frameElems, kind: kind, total: uint64(total)}
}

func (fw *Writer) ensureHeader() error {
	if fw.headerSent {
		return nil
	}
	m := kindMagics[fw.kind]
	copy(fw.hdr[:4], m[:])
	binary.LittleEndian.PutUint64(fw.hdr[4:], fw.total)
	if _, err := fw.w.Write(fw.hdr[:headerLen]); err != nil {
		return err
	}
	fw.headerSent = true
	return nil
}

// Write appends keys to the stream, splitting them into frames. Writing
// past the declared total is an error.
func (fw *Writer) Write(keys []int64) error {
	if fw.closed {
		return errors.New("wire: write after Close")
	}
	if err := fw.ensureHeader(); err != nil {
		return err
	}
	if fw.written+uint64(len(keys)) > fw.total {
		return fmt.Errorf("wire: write overruns declared total %d", fw.total)
	}
	for len(keys) > 0 {
		if fw.frameLeft == 0 {
			fw.frameLeft = int(min(uint64(fw.frameElems), fw.total-fw.written))
			binary.LittleEndian.PutUint32(fw.hdr[:], uint32(fw.frameLeft))
			if _, err := fw.w.Write(fw.hdr[:frameHeaderLen]); err != nil {
				return err
			}
		}
		n := min(len(keys), fw.frameLeft)
		if err := fw.writePayload(keys[:n]); err != nil {
			return err
		}
		fw.frameLeft -= n
		fw.written += uint64(n)
		keys = keys[n:]
	}
	return nil
}

// writePayload emits frame payload. On the zero-copy path the write is
// the []int64 memory itself; the fallback encodes through a reused
// scratch buffer of at most one frame.
func (fw *Writer) writePayload(keys []int64) error {
	if zeroCopy {
		_, err := fw.w.Write(int64Bytes(keys))
		return err
	}
	if fw.scratch == nil {
		fw.scratch = make([]byte, 0, fw.frameElems*8)
	}
	fw.scratch = AppendInt64s(fw.scratch[:0], keys)
	_, err := fw.w.Write(fw.scratch)
	return err
}

// Close writes the end-of-stream marker. It errors if fewer elements
// than the declared total were written (the peer would otherwise see
// ErrShortStream). Close does not close the underlying writer.
func (fw *Writer) Close() error {
	if fw.closed {
		return nil
	}
	if err := fw.ensureHeader(); err != nil {
		return err
	}
	fw.closed = true
	if fw.written != fw.total {
		return fmt.Errorf("wire: stream closed at %d of %d declared elements", fw.written, fw.total)
	}
	binary.LittleEndian.PutUint32(fw.hdr[:], 0)
	_, err := fw.w.Write(fw.hdr[:frameHeaderLen])
	return err
}

// Encode is the one-shot convenience: the full int64 stream for keys,
// appended to dst (nil dst allocates exactly). Used by clients that
// build request bodies up front.
func Encode(dst []byte, keys []int64, frameElems int) []byte {
	return EncodeKind(dst, KindInt64, keys, frameElems)
}

// EncodeKind is Encode for a typed stream: keys holds the payload cells
// in stream order (IEEE bits for float64, interleaved key/payload cells
// for records — see NewWriterKind, including the even-total requirement).
func EncodeKind(dst []byte, kind Kind, keys []int64, frameElems int) []byte {
	if !kind.Valid() {
		panic("wire: invalid stream kind")
	}
	if kind == KindRecord && len(keys)%2 != 0 {
		panic("wire: record stream with odd cell total")
	}
	if frameElems <= 0 {
		frameElems = DefaultFrameElems
	}
	if frameElems > MaxFrameElems {
		frameElems = MaxFrameElems
	}
	if dst == nil {
		dst = make([]byte, 0, EncodedLen(len(keys), frameElems))
	}
	var hdr [headerLen]byte
	m := kindMagics[kind]
	copy(hdr[:4], m[:])
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(keys)))
	dst = append(dst, hdr[:headerLen]...)
	for off := 0; off < len(keys); {
		n := len(keys) - off
		if n > frameElems {
			n = frameElems
		}
		binary.LittleEndian.PutUint32(hdr[:], uint32(n))
		dst = append(dst, hdr[:frameHeaderLen]...)
		dst = AppendInt64s(dst, keys[off:off+n])
		off += n
	}
	binary.LittleEndian.PutUint32(hdr[:], 0)
	return append(dst, hdr[:frameHeaderLen]...)
}

// Reader decodes one frame stream. NewReader consumes and validates the
// stream header, so Total is available before any payload is read and
// the caller can size its destination buffer exactly. Not safe for
// concurrent use.
type Reader struct {
	r     io.Reader
	kind  Kind
	total uint64
	read  uint64
	// frameLeft is the undelivered remainder of the current frame; eot is
	// set once the zero-count end marker has been consumed.
	frameLeft int
	eot       bool
	hdr       [headerLen]byte
	scratch   []byte
}

// NewReader reads the stream header of an int64 stream. A short or
// alien prefix yields ErrBadMagic/ErrTruncated; a valid stream of a
// different kind yields ErrWrongKind (pre-typed callers keep their exact
// semantics: only MLK1 decodes).
func NewReader(r io.Reader) (*Reader, error) {
	fr, err := NewReaderAnyKind(r)
	if err != nil {
		return nil, err
	}
	if fr.kind != KindInt64 {
		return nil, fmt.Errorf("%w: got %s, want i64", ErrWrongKind, fr.kind)
	}
	return fr, nil
}

// NewReaderAnyKind reads the stream header accepting every known kind;
// Kind reports which one arrived, and the caller routes the cells
// accordingly. A record stream declaring an odd cell total is rejected
// here, before any allocation is sized from it.
func NewReaderAnyKind(r io.Reader) (*Reader, error) {
	fr := &Reader{r: r}
	if _, err := io.ReadFull(r, fr.hdr[:headerLen]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header", ErrTruncated)
		}
		return nil, err
	}
	got := [4]byte(fr.hdr[:4])
	kind := Kind(0xff)
	for k, m := range kindMagics {
		if got == m {
			kind = Kind(k)
			break
		}
	}
	if !kind.Valid() {
		if [3]byte(got[:3]) == magicPrefix {
			return nil, fmt.Errorf("%w: unknown kind byte %q", ErrBadMagic, got[3])
		}
		return nil, ErrBadMagic
	}
	fr.kind = kind
	fr.total = binary.LittleEndian.Uint64(fr.hdr[4:])
	if fr.total > math.MaxInt64 {
		// Total reports an int64; a count of 2^63 or more would read as
		// negative and slip past callers' upper-bound checks.
		return nil, fmt.Errorf("%w: declared total %d", ErrFrameOverrun, fr.total)
	}
	if kind == KindRecord && fr.total%2 != 0 {
		return nil, fmt.Errorf("%w: total %d", ErrOddRecordStream, fr.total)
	}
	return fr, nil
}

// Kind reports the stream kind announced by the header.
func (fr *Reader) Kind() Kind { return fr.kind }

// Total reports the stream's declared payload cell count (for records,
// 2x the record count). Callers must treat it as untrusted until
// bounds-checked: it sizes allocations.
func (fr *Reader) Total() int64 { return int64(fr.total) }

// nextFrame consumes the next frame prefix, leaving the count in
// frameLeft (eot on the end marker).
func (fr *Reader) nextFrame() error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:frameHeaderLen]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: missing frame header", ErrTruncated)
		}
		return err
	}
	count := binary.LittleEndian.Uint32(fr.hdr[:frameHeaderLen])
	if count == 0 {
		fr.eot = true
		if fr.read != fr.total {
			return fmt.Errorf("%w: got %d of %d", ErrShortStream, fr.read, fr.total)
		}
		return nil
	}
	if uint64(count) > fr.total-fr.read || count > MaxFrameElems {
		return fmt.Errorf("%w: frame of %d with %d remaining", ErrFrameOverrun, count, fr.total-fr.read)
	}
	fr.frameLeft = int(count)
	return nil
}

// ReadBatch fills dst with up to len(dst) decoded keys, crossing frame
// boundaries as needed, and reports how many were written. After the
// end-of-stream marker it returns (0, io.EOF).
func (fr *Reader) ReadBatch(dst []int64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(dst) {
		if fr.frameLeft == 0 {
			if fr.eot {
				break
			}
			if err := fr.nextFrame(); err != nil {
				return n, err
			}
			continue
		}
		take := fr.frameLeft
		if rem := len(dst) - n; take > rem {
			take = rem
		}
		if err := fr.readPayload(dst[n : n+take]); err != nil {
			return n, err
		}
		fr.frameLeft -= take
		fr.read += uint64(take)
		n += take
	}
	if n == 0 && fr.eot {
		return 0, io.EOF
	}
	return n, nil
}

// readPayload decodes len(dst) keys of the current frame into dst. On
// the zero-copy path the socket read lands directly in dst's memory;
// the fallback stages through a bounded scratch buffer.
func (fr *Reader) readPayload(dst []int64) error {
	if zeroCopy {
		if _, err := io.ReadFull(fr.r, int64Bytes(dst)); err != nil {
			return payloadErr(err)
		}
		return nil
	}
	const chunkBytes = 64 << 10
	if fr.scratch == nil {
		fr.scratch = make([]byte, chunkBytes)
	}
	for len(dst) > 0 {
		n := len(dst) * 8
		if n > len(fr.scratch) {
			n = len(fr.scratch)
		}
		if _, err := io.ReadFull(fr.r, fr.scratch[:n]); err != nil {
			return payloadErr(err)
		}
		DecodeInt64s(dst[:n/8], fr.scratch[:n])
		dst = dst[n/8:]
	}
	return nil
}

func payloadErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: short frame payload", ErrTruncated)
	}
	return err
}

// ReadInto decodes the entire stream into dst, whose length must equal
// Total, and verifies the end-of-stream marker and that nothing follows
// it — a complete, self-consistent stream or an error.
func (fr *Reader) ReadInto(dst []int64) error {
	if int64(len(dst)) != fr.Total() {
		return fmt.Errorf("wire: ReadInto dst of %d for stream of %d", len(dst), fr.total)
	}
	for len(dst) > 0 {
		n, err := fr.ReadBatch(dst)
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: got %d of %d", ErrShortStream, fr.read, fr.total)
			}
			return err
		}
		dst = dst[n:]
	}
	return fr.Finish()
}

// Finish consumes the end-of-stream marker (if not already seen) and
// verifies stream integrity: the declared total was delivered and no
// trailing bytes follow. Call after the last expected ReadBatch.
func (fr *Reader) Finish() error {
	for !fr.eot {
		if fr.frameLeft > 0 {
			return fmt.Errorf("%w: %d undelivered elements", ErrTrailingData, fr.frameLeft)
		}
		if err := fr.nextFrame(); err != nil {
			return err
		}
		if fr.frameLeft > 0 {
			return fmt.Errorf("%w: %d undelivered elements", ErrTrailingData, fr.frameLeft)
		}
	}
	var one [1]byte
	if n, err := fr.r.Read(one[:]); n > 0 {
		return ErrTrailingData
	} else if err != nil && err != io.EOF {
		return err
	}
	return nil
}

// Decode is the one-shot convenience: it decodes a complete stream from
// r, allocating the destination via alloc (nil alloc, or an alloc
// returning a slice of the wrong length, falls back to make). maxElems
// bounds the declared total before any allocation; <= 0 means unbounded.
func Decode(r io.Reader, maxElems int64, alloc func(n int) []int64) ([]int64, error) {
	fr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	total := fr.Total()
	if maxElems > 0 && total > maxElems {
		return nil, fmt.Errorf("%w: declared total %d exceeds limit %d", ErrFrameOverrun, total, maxElems)
	}
	var dst []int64
	if alloc != nil {
		dst = alloc(int(total))
	}
	if int64(len(dst)) != total {
		dst = make([]int64, total)
	}
	if err := fr.ReadInto(dst); err != nil {
		return dst, err
	}
	return dst, nil
}
