// Package tuple implements PIER's self-describing tuples (paper §3.3.1).
// Because PIER strictly decouples storage from the query engine, it keeps
// no metadata catalog: every tuple carries its own table name, column
// names, and column types. Type checking is deferred to the moment a
// comparison or function accesses a value; operators apply a best-effort
// policy and discard tuples whose fields are missing or of incompatible
// type (§3.3.4 "malformed tuples").
//
// A Value is 32 bytes with one pointer word (see Value): batches store
// rows × columns of them, so their size is what every decode, copy and
// collector scan of a batch pays per column.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind tags a Value's dynamic type. The paper stores column values as
// native Java objects; this port uses a compact tagged union over the Go
// types a wire-format tuple can carry.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindTime
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is one column value: a tagged union of the supported types. The
// zero Value is Null.
//
// Layout: a kind tag, one 64-bit word and one string header — 32 bytes,
// one pointer word, half of a struct with a field per kind. Every
// fixed-width kind shares the word (a float as its IEEE-754 bits, so
// -0.0 and NaN payloads survive every path), and both variable-width
// kinds share the string (a bytes payload is an immutable copy).
type Value struct {
	kind Kind
	i    int64  // bool (0/1), int, time (unix nanos), float (math.Float64bits)
	s    string // string or bytes payload
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int wraps an integer.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// String wraps a string.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bytes wraps a copy of a byte string.
func Bytes(v []byte) Value { return Value{kind: KindBytes, s: string(v)} }

// Time wraps a timestamp (nanosecond precision, UTC).
func Time(v time.Time) Value { return Value{kind: KindTime, i: v.UnixNano()} }

// Kind returns the value's dynamic type tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool extracts a boolean; ok is false for other kinds.
func (v Value) AsBool() (b, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.i != 0, true
}

// AsInt extracts an integer; ok is false for other kinds.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i, true
}

// AsFloat extracts a float, widening ints; ok is false otherwise.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.float(), true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString extracts a string; ok is false for other kinds.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s, true
}

// AsBytes extracts a copy of a byte string; ok is false for other kinds.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return []byte(v.s), true
}

// AsTime extracts a timestamp; ok is false for other kinds.
func (v Value) AsTime() (time.Time, bool) {
	if v.kind != KindTime {
		return time.Time{}, false
	}
	return time.Unix(0, v.i).UTC(), true
}

// float reads a KindFloat value's payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// numeric reports whether the value participates in numeric comparison.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values. It returns (-1|0|+1, true) when the pair is
// comparable: same kind, or any two numerics. Mixed or null operands
// return ok=false — the caller (per the malformed-tuple policy) typically
// discards the tuple rather than erroring.
func Compare(a, b Value) (int, bool) {
	if a.numeric() && b.numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpOrdered(a.i, b.i), true
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpOrdered(af, bf), true
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindBool, KindTime:
		return cmpOrdered(a.i, b.i), true
	case KindString, KindBytes: // string order is byte order
		return cmpOrdered(a.s, b.s), true
	default:
		return 0, false
	}
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality; values of incomparable kinds are unequal.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// KeyString renders the value in a canonical, injective-per-kind form
// suitable for use as a DHT partitioning key (§3.2.1). Distinct values of
// the same kind always produce distinct strings.
func (v Value) KeyString() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindBool:
		if v.i != 0 {
			return "b1"
		}
		return "b0"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.float(), 'x', -1, 64)
	case KindString:
		return "s" + v.s
	case KindBytes:
		return "y" + v.s
	case KindTime:
		return "t" + strconv.FormatInt(v.i, 10)
	default:
		return "?"
	}
}

// AppendKey appends exactly the bytes KeyString returns to dst — the
// zero-allocation form used on the vectorized hot paths (group-by and
// join key construction). The two must stay byte-identical: group keys
// built here merge against keys built via KeyString on other nodes
// (GroupSet partials cross the wire keyed by these strings).
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindBool:
		if v.i != 0 {
			return append(dst, 'b', '1')
		}
		return append(dst, 'b', '0')
	case KindInt:
		return strconv.AppendInt(append(dst, 'i'), v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(append(dst, 'f'), v.float(), 'x', -1, 64)
	case KindString:
		return append(append(dst, 's'), v.s...)
	case KindBytes:
		return append(append(dst, 'y'), v.s...)
	case KindTime:
		return strconv.AppendInt(append(dst, 't'), v.i, 10)
	default:
		return append(dst, '?')
	}
}

// String renders the value for humans.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBytes:
		return fmt.Sprintf("%x", v.s)
	case KindTime:
		return time.Unix(0, v.i).UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}
