package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refEncode builds the expected stream bytes through encoding/binary
// alone — the portable reference both encode paths must match.
func refEncode(keys []int64, frameElems int) []byte {
	if frameElems <= 0 {
		frameElems = DefaultFrameElems
	}
	var b []byte
	b = append(b, 'M', 'L', 'K', '1')
	b = binary.LittleEndian.AppendUint64(b, uint64(len(keys)))
	for off := 0; off < len(keys); {
		n := len(keys) - off
		if n > frameElems {
			n = frameElems
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		for _, k := range keys[off : off+n] {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		off += n
	}
	return binary.LittleEndian.AppendUint32(b, 0)
}

func testVectors() [][]int64 {
	rng := rand.New(rand.NewSource(42))
	big := make([]int64, 20000)
	for i := range big {
		big[i] = rng.Int63() - rng.Int63()
	}
	return [][]int64{
		nil,
		{},
		{0},
		{-1},
		{math.MinInt64, math.MaxInt64},
		{1, 2, 3, 4, 5, 6, 7},
		big[:1],
		big[:8191],
		big[:8192],
		big[:8193],
		big,
	}
}

func TestWriterMatchesReference(t *testing.T) {
	// One Write covering the whole sequence: framing is then determined by
	// frameElems alone and must match the portable reference byte for byte.
	for _, frameElems := range []int{0, 1, 7, 4096, DefaultFrameElems} {
		for vi, keys := range testVectors() {
			var buf bytes.Buffer
			fw := NewWriter(&buf, len(keys), frameElems)
			if err := fw.Write(keys); err != nil {
				t.Fatalf("vector %d frame %d: Write: %v", vi, frameElems, err)
			}
			if err := fw.Close(); err != nil {
				t.Fatalf("vector %d frame %d: Close: %v", vi, frameElems, err)
			}
			want := refEncode(keys, frameElems)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("vector %d frame %d: stream bytes diverge from reference (len %d vs %d)",
					vi, frameElems, buf.Len(), len(want))
			}
		}
	}
}

func TestWriterUnevenBatchesRoundTrip(t *testing.T) {
	// Frames are cut at fixed offsets whatever the Write-call batch
	// boundaries, so uneven batches must produce the reference bytes
	// exactly — and decode to the unchanged sequence.
	for _, frameElems := range []int{0, 1, 7, 4096} {
		for vi, keys := range testVectors() {
			var buf bytes.Buffer
			fw := NewWriter(&buf, len(keys), frameElems)
			for off := 0; off < len(keys); {
				n := 1 + (off*7)%1000
				if off+n > len(keys) {
					n = len(keys) - off
				}
				if err := fw.Write(keys[off : off+n]); err != nil {
					t.Fatalf("vector %d frame %d: Write: %v", vi, frameElems, err)
				}
				off += n
			}
			if err := fw.Close(); err != nil {
				t.Fatalf("vector %d frame %d: Close: %v", vi, frameElems, err)
			}
			if !bytes.Equal(buf.Bytes(), refEncode(keys, frameElems)) {
				t.Fatalf("vector %d frame %d: uneven batches changed the stream bytes", vi, frameElems)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()), 0, nil)
			if err != nil {
				t.Fatalf("vector %d frame %d: Decode: %v", vi, frameElems, err)
			}
			if len(got) != len(keys) {
				t.Fatalf("vector %d: decoded %d of %d keys", vi, len(got), len(keys))
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("vector %d key %d: %d != %d", vi, i, got[i], keys[i])
				}
			}
		}
	}
}

func TestEncodeMatchesWriter(t *testing.T) {
	for _, frameElems := range []int{0, 3, 512} {
		for vi, keys := range testVectors() {
			var buf bytes.Buffer
			fw := NewWriter(&buf, len(keys), frameElems)
			if err := fw.Write(keys); err != nil {
				t.Fatalf("vector %d: %v", vi, err)
			}
			if err := fw.Close(); err != nil {
				t.Fatalf("vector %d: %v", vi, err)
			}
			if got := Encode(nil, keys, frameElems); !bytes.Equal(got, buf.Bytes()) {
				t.Fatalf("vector %d frame %d: Encode diverges from Writer", vi, frameElems)
			}
			if got := Encode(nil, keys, frameElems); len(got) != EncodedLen(len(keys), frameElems) {
				t.Fatalf("vector %d frame %d: EncodedLen %d, got %d",
					vi, frameElems, EncodedLen(len(keys), frameElems), len(got))
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for vi, keys := range testVectors() {
		for _, frameElems := range []int{0, 1, 1000} {
			enc := Encode(nil, keys, frameElems)
			got, err := Decode(bytes.NewReader(enc), 0, nil)
			if err != nil {
				t.Fatalf("vector %d frame %d: Decode: %v", vi, frameElems, err)
			}
			if len(got) != len(keys) {
				t.Fatalf("vector %d: decoded %d of %d keys", vi, len(got), len(keys))
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("vector %d: key %d = %d, want %d", vi, i, got[i], keys[i])
				}
			}
		}
	}
}

func TestReadBatchAcrossFrames(t *testing.T) {
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i * 3)
	}
	enc := Encode(nil, keys, 64)
	fr, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Total() != 1000 {
		t.Fatalf("Total = %d", fr.Total())
	}
	var got []int64
	buf := make([]int64, 97) // not a multiple of the 64-element frames
	for {
		n, err := fr.ReadBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, keys) {
		t.Fatal("ReadBatch reassembly diverges")
	}
	if err := fr.Finish(); err != nil {
		t.Fatalf("Finish after EOF: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	keys := []int64{1, 2, 3}
	enc := Encode(nil, keys, 2)

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, enc...)
		bad[0] = 'X'
		if _, err := Decode(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("short header", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(enc[:7]), 0, nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(enc[:len(enc)-9]), 0, nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("missing end marker", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(enc[:len(enc)-4]), 0, nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(append(append([]byte{}, enc...), 0xEE)), 0, nil); !errors.Is(err, ErrTrailingData) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("frame overruns total", func(t *testing.T) {
		bad := append([]byte{}, enc...)
		// First frame claims 5 elements against a declared total of 3.
		binary.LittleEndian.PutUint32(bad[12:], 5)
		if _, err := Decode(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrFrameOverrun) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("early end marker", func(t *testing.T) {
		bad := append([]byte{}, enc[:12]...)
		bad = binary.LittleEndian.AppendUint32(bad, 0) // EOT with 3 declared
		if _, err := Decode(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrShortStream) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("total over limit", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(enc), 2, nil); !errors.Is(err, ErrFrameOverrun) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("hostile total allocates nothing", func(t *testing.T) {
		var hdr []byte
		hdr = append(hdr, 'M', 'L', 'K', '1')
		hdr = binary.LittleEndian.AppendUint64(hdr, math.MaxUint64/8)
		if _, err := Decode(bytes.NewReader(hdr), 1<<20, nil); !errors.Is(err, ErrFrameOverrun) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("total of 2^63 refused at the header", func(t *testing.T) {
		// Read as int64 this total is negative and would pass an
		// upper-bound check; the header parse must refuse it, even with
		// no limit to check against.
		hdr := binary.LittleEndian.AppendUint64([]byte("MLK1"), 1<<63)
		if _, err := NewReaderAnyKind(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameOverrun) {
			t.Fatalf("err = %v", err)
		}
		if _, err := Decode(bytes.NewReader(hdr), 0, nil); !errors.Is(err, ErrFrameOverrun) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestWriterTotalEnforced(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf, 2, 0)
	if err := fw.Write([]int64{1, 2, 3}); err == nil {
		t.Fatal("overrun write succeeded")
	}
	fw = NewWriter(&buf, 5, 0)
	if err := fw.Write([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err == nil {
		t.Fatal("short Close succeeded")
	}
}

func TestDecodeAllocCallback(t *testing.T) {
	keys := []int64{9, 8, 7, 6}
	enc := Encode(nil, keys, 0)
	var asked int
	got, err := Decode(bytes.NewReader(enc), 0, func(n int) []int64 {
		asked = n
		return make([]int64, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	if asked != len(keys) || len(got) != len(keys) {
		t.Fatalf("alloc asked %d, got %d keys", asked, len(got))
	}
	// A refusing alloc (nil) must fall back to make, not fail.
	got, err = Decode(bytes.NewReader(enc), 0, func(int) []int64 { return nil })
	if err != nil || len(got) != len(keys) {
		t.Fatalf("fallback alloc: %v, %d keys", err, len(got))
	}
}

func TestBulkConversions(t *testing.T) {
	for vi, keys := range testVectors() {
		want := make([]byte, len(keys)*8)
		for i, k := range keys {
			binary.LittleEndian.PutUint64(want[i*8:], uint64(k))
		}
		got := make([]byte, len(keys)*8)
		EncodeInt64s(got, keys)
		if !bytes.Equal(got, want) {
			t.Fatalf("vector %d: EncodeInt64s diverges", vi)
		}
		if got := AppendInt64s(nil, keys); !bytes.Equal(got, want) {
			t.Fatalf("vector %d: AppendInt64s diverges", vi)
		}
		back := make([]int64, len(keys))
		DecodeInt64s(back, want)
		for i := range keys {
			if back[i] != keys[i] {
				t.Fatalf("vector %d: DecodeInt64s key %d = %d, want %d", vi, i, back[i], keys[i])
			}
		}
	}
}
