package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.U16(65535)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.I64(-42)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	w.Bytes32([]byte{1, 2, 3})
	w.String("hello")
	ts := time.Date(2005, 1, 5, 12, 0, 0, 123, time.UTC)
	w.Time(ts)
	w.Duration(90 * time.Second)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U16(); got != 65535 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool #1 = false")
	}
	if got := r.Bool(); got {
		t.Error("Bool #2 = true")
	}
	if got := r.Bytes32(); len(got) != 3 || got[0] != 1 {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Time(); !got.Equal(ts) {
		t.Errorf("Time = %v, want %v", got, ts)
	}
	if got := r.Duration(); got != 90*time.Second {
		t.Errorf("Duration = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestTruncatedReadsAreSticky(t *testing.T) {
	w := NewWriter(8)
	w.U32(99)
	r := NewReader(w.Bytes())
	_ = r.U64() // needs 8 bytes, only 4 available
	if r.Err() == nil {
		t.Fatal("want truncation error")
	}
	// Subsequent reads stay zero and do not panic.
	if got := r.U32(); got != 0 {
		t.Errorf("post-error U32 = %d, want 0", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("post-error String = %q, want empty", got)
	}
}

// Varints of every width round-trip, and a malformed one fails with its
// class: cut off by the end as ErrTruncated, past 64 bits or a length
// past the input as ErrOversized.
func TestVarintRoundTripAndFailures(t *testing.T) {
	w := NewWriter(64)
	ints := []int64{0, 1, -1, 63, -64, 64, -65, math.MinInt64, math.MaxInt64}
	for _, v := range ints {
		w.Varint(v)
	}
	w.Uvarint(math.MaxUint64)
	w.VarString(strings.Repeat("s", 200))
	r := NewReader(w.Bytes())
	for _, v := range ints {
		if got := r.Varint(); got != v {
			t.Errorf("Varint = %d, want %d", got, v)
		}
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.VarString(); got != strings.Repeat("s", 200) || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("VarString = %q, err %v, %d left", got, r.Err(), r.Remaining())
	}

	eleven := bytes.Repeat([]byte{0x80}, 11)
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	for name, c := range map[string]struct {
		data []byte
		want error
		read func(*Reader)
	}{
		"empty":            {nil, ErrTruncated, func(r *Reader) { r.Uvarint() }},
		"cut off":          {[]byte{0x80, 0x80}, ErrTruncated, func(r *Reader) { r.Varint() }},
		"eleven 0x80":      {eleven, ErrOversized, func(r *Reader) { r.Uvarint() }},
		"10-byte overflow": {overflow, ErrOversized, func(r *Reader) { r.Varint() }},
		"length past end":  {[]byte{0x09, 'a', 'b'}, ErrOversized, func(r *Reader) { r.VarString() }},
	} {
		r := NewReader(c.data)
		c.read(r)
		if !errors.Is(r.Err(), c.want) {
			t.Errorf("%s: err %v, want %v", name, r.Err(), c.want)
		}
		if r.Varint() != 0 || r.VarString() != "" || !errors.Is(r.Err(), c.want) {
			t.Errorf("%s: reads after the error are not zero, or the error moved", name)
		}
	}
	// A non-minimal encoding of 0 decodes as 0.
	if r := NewReader([]byte{0x80, 0x00}); r.Uvarint() != 0 || r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("0x80 0x00: err %v, %d left", r.Err(), r.Remaining())
	}
}

// Varint reads allocate nothing, and VarString only its string.
func TestVarintReadsDoNotAllocate(t *testing.T) {
	ints, str := NewWriter(16), NewWriter(16)
	ints.Varint(5)
	ints.Varint(math.MinInt64)
	str.VarString("payload")
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(ints.Bytes())
		r.Varint()
		r.Varint()
	}); n != 0 {
		t.Errorf("two Varint reads: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(str.Bytes())
		_ = r.VarString()
	}); n > 1 {
		t.Errorf("VarString: %v allocations, want at most the string", n)
	}
}

func TestOversizedLengthPrefixRejected(t *testing.T) {
	w := NewWriter(8)
	w.U32(1 << 31) // claims 2GB payload
	r := NewReader(w.Bytes())
	if got := r.Bytes32(); got != nil {
		t.Errorf("Bytes32 = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("want oversize error")
	}
}

func TestEmptyStringAndBytes(t *testing.T) {
	w := NewWriter(8)
	w.String("")
	w.Bytes32(nil)
	r := NewReader(w.Bytes())
	if got := r.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes32(); len(got) != 0 {
		t.Errorf("Bytes32 = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyU64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter(8)
		w.U64(v)
		return NewReader(w.Bytes()).U64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		w := NewWriter(len(s) + 4)
		w.String(s)
		r := NewReader(w.Bytes())
		return r.String() == s && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyF64RoundTrip(t *testing.T) {
	f := func(v float64) bool {
		w := NewWriter(8)
		w.F64(v)
		got := NewReader(w.Bytes()).F64()
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMixedSequenceRoundTrip(t *testing.T) {
	f := func(a uint32, b string, c int64, d bool, e []byte) bool {
		w := NewWriter(32)
		w.U32(a)
		w.String(b)
		w.I64(c)
		w.Bool(d)
		w.Bytes32(e)
		r := NewReader(w.Bytes())
		ga, gb, gc, gd, ge := r.U32(), r.String(), r.I64(), r.Bool(), r.Bytes32()
		if r.Err() != nil || r.Remaining() != 0 {
			return false
		}
		if ga != a || gb != b || gc != c || gd != d {
			return false
		}
		if len(ge) != len(e) {
			return false
		}
		for i := range e {
			if ge[i] != e[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRandomBytesNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		r := NewReader(b)
		// Exercise every accessor; none may panic regardless of input.
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.U64()
		_ = r.Bytes32()
		_ = r.String()
		_ = r.Time()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// PatchU32 supports the reserve-then-patch idiom used by checkpoint
// encoders whose element counts are only known after encoding.
func TestPatchU32ReserveThenPatch(t *testing.T) {
	w := NewWriter(32)
	w.String("hdr")
	pos := w.Len()
	w.U32(0)
	for i := 0; i < 3; i++ {
		w.U64(uint64(i))
	}
	w.PatchU32(pos, 3)

	r := NewReader(w.Bytes())
	if got := r.String(); got != "hdr" {
		t.Fatalf("header = %q", got)
	}
	if got := r.U32(); got != 3 {
		t.Fatalf("patched count = %d, want 3", got)
	}
	for i := uint64(0); i < 3; i++ {
		if got := r.U64(); got != i {
			t.Fatalf("element %d = %d", i, got)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("trailing state: err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestPatchU32OutOfRangePanics(t *testing.T) {
	w := NewWriter(8)
	w.U16(7)
	defer func() {
		if recover() == nil {
			t.Fatal("PatchU32 past the buffer end did not panic")
		}
	}()
	w.PatchU32(0, 1) // only 2 bytes written
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.String("first")
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.U32(42)
	r := NewReader(w.Bytes())
	if got := r.U32(); got != 42 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("post-Reset encode corrupted: %d err=%v rem=%d", got, r.Err(), r.Remaining())
	}
}
