// Package wire provides the compact binary encoding used for every
// message PIER puts on the network and for stored tuples. PIER's core
// design centers on low-latency processing of large volumes of network
// messages (§2.1.1), so the format is a simple length-delimited scheme
// with no reflection and no allocation beyond the destination buffer:
// fixed-width big-endian integers and length-prefixed byte strings.
//
// Writer appends values to a growing buffer; Reader consumes them in the
// same order. Reader is error-sticky: after the first malformed field,
// all subsequent reads return zero values and Err reports the failure.
// This style keeps handler code linear — decode every field, then check
// Err once — which matters in an event-driven system where handlers must
// stay short (§3.1.2).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrTruncated is reported when a Reader runs out of bytes mid-field.
var ErrTruncated = errors.New("wire: truncated message")

// ErrOversized is reported when a length prefix exceeds the remaining
// input, guarding against corrupt or hostile frames.
var ErrOversized = errors.New("wire: length prefix exceeds input")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The slice aliases the Writer's
// internal buffer; the caller must not keep writing through the Writer
// while holding it.
//
// The scratch-writer idiom on hot send paths leans on this aliasing
// plus the vri.Runtime.Send contract (payloads are consumed
// synchronously): encode into a long-lived Writer, hand Bytes straight
// to Send, then Reset and reuse the same buffer for the next message —
// zero allocation per message. The handoff is strict: bytes that must
// survive an asynchronous boundary (retained in a callback, a struct,
// or a pending-request table) must be copied or encoded into their own
// Writer, because the next Reset invalidates them.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the Writer to empty, retaining the allocated buffer
// so one Writer can encode a sequence of messages without reallocating.
// Slices previously returned by Bytes are invalidated.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a 4-byte length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends b with no length prefix: a field that runs to the end of
// the message, which the receiver delimits by Remaining.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// PatchU32 overwrites the 4 bytes at offset off with a big-endian
// uint32. It supports the reserve-then-patch idiom for counts that are
// only known after their elements were encoded (e.g. checkpoint object
// tables): record Len(), append U32(0), encode the elements, then patch.
// off must have been obtained from Len() before appending the
// placeholder; patching a range not fully inside the buffer panics.
func (w *Writer) PatchU32(off int, v uint32) {
	if off < 0 || off+4 > len(w.buf) {
		panic(fmt.Sprintf("wire: PatchU32 at %d outside buffer of %d bytes", off, len(w.buf)))
	}
	binary.BigEndian.PutUint32(w.buf[off:], v)
}

// Time appends a timestamp with nanosecond precision.
func (w *Writer) Time(t time.Time) { w.I64(t.UnixNano()) }

// Duration appends a time.Duration.
func (w *Writer) Duration(d time.Duration) { w.I64(int64(d)) }

// Reader consumes an encoded message produced by Writer.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b for decoding. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.b)))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a 4-byte-length-prefixed byte string. The returned slice
// aliases the input buffer.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if int(n) > r.Remaining() {
		r.fail(fmt.Errorf("%w: prefix %d, remaining %d", ErrOversized, n, r.Remaining()))
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes32()) }

// Time reads a nanosecond-precision timestamp.
func (r *Reader) Time() time.Time {
	ns := r.I64()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Duration reads a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.I64()) }
