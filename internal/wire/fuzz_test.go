package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzWireReader feeds arbitrary byte strings through a Reader and
// checks the decoding contract against hostile frames: no panics, every
// failure classified as ErrTruncated or ErrOversized, and error-sticky
// semantics (after the first failure all reads return zero values and
// the error never changes).
func FuzzWireReader(f *testing.F) {
	// A well-formed message exercising every field type.
	w := NewWriter(64)
	w.U8(1)
	w.U16(2)
	w.U32(3)
	w.U64(4)
	w.I64(-5)
	w.F64(6.5)
	w.Bool(true)
	w.String("namespace")
	w.Bytes32([]byte("payload"))
	w.Time(time.Unix(1100000000, 42).UTC())
	w.Duration(30 * time.Second)
	fixed := w.Len()
	w.Varint(-5)
	w.Uvarint(300)
	w.VarString("natural")
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized length prefix
	f.Add([]byte{0, 0, 0, 9, 'a', 'b'})   // prefix beyond input
	f.Add(w.Bytes()[:w.Len()-3])          // truncated tail
	f.Add([]byte{0, 0, 0, 0})             // empty string then EOF
	// The varint fields, reached after well-formed fixed ones.
	tail := func(b ...byte) []byte { return append(append([]byte(nil), w.Bytes()[:fixed]...), b...) }
	f.Add(tail(bytes.Repeat([]byte{0x80}, 11)...))              // overlong varint
	f.Add(tail(append(bytes.Repeat([]byte{0xff}, 9), 0x02)...)) // 10-byte varint past 64 bits
	f.Add(tail(0x02, 0x01, 0x09, 'a', 'b'))                     // string length past the input
	f.Add(tail(0x80, 0x00, 0x80, 0x00, 0x00))                   // non-minimal zeros

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// Walk the same field schedule the seed used; a hostile frame
		// may fail at any point in it.
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.U64()
		_ = r.I64()
		_ = r.F64()
		_ = r.Bool()
		_ = r.String()
		_ = r.Bytes32()
		_ = r.Time()
		_ = r.Duration()
		_ = r.Varint()
		_ = r.Uvarint()
		_ = r.VarString()
		if r.Remaining() < 0 {
			t.Fatalf("Remaining() = %d went negative", r.Remaining())
		}
		err := r.Err()
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversized) {
			t.Fatalf("error is neither ErrTruncated nor ErrOversized: %v", err)
		}
		if err != nil {
			// Error-sticky: further reads yield zero values and the
			// original error survives.
			if got := r.U64(); got != 0 {
				t.Fatalf("read after error returned %d, want 0", got)
			}
			if s := r.String(); s != "" {
				t.Fatalf("read after error returned %q, want empty", s)
			}
			if v, s := r.Varint(), r.VarString(); v != 0 || s != "" {
				t.Fatalf("varint reads after error returned %d, %q", v, s)
			}
			if !errors.Is(r.Err(), ErrTruncated) && !errors.Is(r.Err(), ErrOversized) {
				t.Fatalf("sticky error mutated to: %v", r.Err())
			}
		}
	})
}

// FuzzWireRoundTrip drives the Writer with fuzz-chosen values and
// checks the Reader recovers them exactly.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(99), "hello", []byte("world"), int64(-40))
	f.Add(uint8(0), uint64(0), "", []byte{}, int64(0))
	f.Add(uint8(0), uint64(1<<63), "", []byte{}, int64(-1<<63))
	f.Fuzz(func(t *testing.T, u8 uint8, u64 uint64, s string, b []byte, i64 int64) {
		w := NewWriter(16)
		w.U8(u8)
		w.U64(u64)
		w.String(s)
		w.Bytes32(b)
		w.I64(i64)
		w.Varint(i64)
		w.Uvarint(u64)
		w.VarString(s)
		r := NewReader(w.Bytes())
		if got := r.U8(); got != u8 {
			t.Fatalf("U8: %d != %d", got, u8)
		}
		if got := r.U64(); got != u64 {
			t.Fatalf("U64: %d != %d", got, u64)
		}
		if got := r.String(); got != s {
			t.Fatalf("String: %q != %q", got, s)
		}
		if got := r.Bytes32(); string(got) != string(b) {
			t.Fatalf("Bytes32: %q != %q", got, b)
		}
		if got := r.I64(); got != i64 {
			t.Fatalf("I64: %d != %d", got, i64)
		}
		if got := r.Varint(); got != i64 {
			t.Fatalf("Varint: %d != %d", got, i64)
		}
		if got := r.Uvarint(); got != u64 {
			t.Fatalf("Uvarint: %d != %d", got, u64)
		}
		if got := r.VarString(); got != s {
			t.Fatalf("VarString: %q != %q", got, s)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}
