package tuple

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pier/internal/wire"
)

// FuzzTupleDecode throws hostile frames at the tuple codec: Decode must
// never panic, must classify every failure as a wire-level truncation or
// oversize, and any frame it accepts must survive a re-encode/re-decode
// round trip unchanged (self-describing stability).
func FuzzTupleDecode(f *testing.F) {
	good := New("fwlogs").
		Set("src", String("10.20.30.40")).
		Set("dstport", Int(443)).
		Set("severity", Int(3)).
		Set("score", Float(0.5)).
		Set("ok", Bool(true)).
		Set("blob", Bytes([]byte{1, 2, 3})).
		Set("nothing", Null())
	f.Add(good.Encode())
	f.Add(New("empty").Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 'h', 'i', 0xff, 0xff}) // huge column count
	f.Add(good.Encode()[:8])                        // truncated mid-header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})      // oversized table name
	f.Add(New("ext").Set("lo", Int(math.MinInt64)).Set("hi", Int(math.MaxInt64)).Encode())
	f.Add(nonMinimalZero(New("t").Set("v", Int(0)).Encode())) // 0 as the varint 0x80 0x00

	f.Fuzz(func(t *testing.T, data []byte) {
		tup, err := Decode(data)
		if err != nil {
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrOversized) {
				t.Fatalf("Decode error is neither ErrTruncated nor ErrOversized: %v", err)
			}
			return
		}
		enc := tup.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded tuple failed: %v", err)
		}
		if again.String() != tup.String() {
			t.Fatalf("round trip changed the tuple:\n first: %s\nsecond: %s", tup, again)
		}
	})
}

// nonMinimalZero rewrites an encoding that ends in an int 0 (the one-byte
// varint 0x00) to end in the two-byte form of the same value, 0x80 0x00.
func nonMinimalZero(enc []byte) []byte {
	return append(append(enc[:len(enc)-1:len(enc)-1], 0x80), 0x00)
}

// FuzzTupleDecodeFrom checks the streaming decoder used for batched
// frames: decoding two concatenated tuples recovers both, and a failure
// in the second leaves the first intact.
func FuzzTupleDecodeFrom(f *testing.F) {
	one := New("a").Set("x", Int(1))
	two := New("b").Set("y", String("z"))
	w := wire.NewWriter(64)
	one.EncodeTo(w)
	two.EncodeTo(w)
	f.Add(w.Bytes())
	f.Add(one.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		for r.Err() == nil && r.Remaining() > 0 {
			before := r.Remaining()
			tup := DecodeFrom(r)
			if r.Err() != nil {
				break
			}
			if tup == nil {
				t.Fatal("DecodeFrom returned nil without error")
			}
			if r.Remaining() >= before {
				t.Fatalf("DecodeFrom consumed nothing (%d bytes remain)", before)
			}
		}
		if err := r.Err(); err != nil &&
			!errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrOversized) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzDecodeFrame throws hostile frames at the batch decoder: DecodeFrame
// must never panic, must refuse with an error rather than a nil batch, and
// must accept no more rows than the frame has bytes. An accepted frame
// re-encodes (EncodeFrame) to a frame that decodes to the same rows in
// order, and a legacy frame yields exactly Decode's row.
func FuzzDecodeFrame(f *testing.F) {
	mixed := NewColumnarBatch("fwlogs", []string{"src", "severity"}, 3)
	mixed.AppendRow([]Value{String("h1"), Int(3)})
	mixed.AppendRow([]Value{String("h2"), Float(2.5)})
	mixed.AppendRow([]Value{String("h3"), Null()})
	f.Add(New("fwlogs").Set("src", String("h1")).Set("severity", Int(3)).Encode())
	f.Add(New("empty").Encode())
	f.Add(mixed.EncodeFrame())
	f.Add([]byte{0xff, 'C', 0, 0, 0, 0, 0, 0, 0x10, 0, 0, 0})
	f.Add(append([]byte{0xff, 'B', 0, 0, 0, 1}, New("t").Set("x", Int(1)).Encode()...))
	ext := NewColumnarBatch("ext", []string{"v"}, 2)
	ext.AppendRow([]Value{Int(math.MinInt64)})
	ext.AppendRow([]Value{Int(math.MaxInt64)})
	f.Add(ext.EncodeFrame())
	zero := NewColumnarBatch("t", []string{"v"}, 1)
	zero.AppendRow([]Value{Int(0)})
	f.Add(nonMinimalZero(zero.EncodeFrame()))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeFrame(data)
		if err != nil {
			if b != nil {
				t.Fatalf("refused frame returned a batch: %v", err)
			}
			return
		}
		if b.Len() > len(data) {
			t.Fatalf("%d-byte frame accepted as %d rows", len(data), b.Len())
		}
		again, err := DecodeFrame(b.EncodeFrame())
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if again.Len() != b.Len() {
			t.Fatalf("re-encoded frame: %d rows, want %d", again.Len(), b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if x, y := b.Row(i).Encode(), again.Row(i).Encode(); !bytes.Equal(x, y) {
				t.Fatalf("row %d changed in the round trip:\n first: %s\nsecond: %s", i, b.Row(i), again.Row(i))
			}
		}
		if data[0] != frameMagic {
			want, err := Decode(data)
			if err != nil || b.Len() != 1 || !bytes.Equal(b.Row(0).Encode(), want.Encode()) {
				t.Fatalf("legacy frame gave %v, Decode gave %v (err %v)", b.Row(0), want, err)
			}
		}
	})
}
