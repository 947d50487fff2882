package exec

import (
	"fmt"
	"sort"
	"strings"

	"pier/internal/tuple"
	"pier/internal/wire"
)

// Aggregate machinery. PIER distinguishes distributive (count, sum, min,
// max), algebraic (avg — constant-size partial state), and holistic
// (count-distinct — state grows with input) aggregates; only the first
// two benefit from hierarchical in-network computation (§3.3.4). Agg
// states encode to the wire so partial aggregates can be shipped up an
// aggregation tree and merged hop by hop.

// AggKind identifies an aggregate function.
type AggKind uint8

// Supported aggregate functions.
const (
	AggCount AggKind = iota + 1
	AggSum
	AggMin
	AggMax
	AggAvg
	AggCountDistinct
)

// String names the aggregate in SQL style.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggCountDistinct:
		return "countdistinct"
	default:
		return fmt.Sprintf("agg(%d)", uint8(k))
	}
}

// ParseAggKind maps a SQL-ish name to the kind.
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "avg":
		return AggAvg, true
	case "countdistinct", "count_distinct":
		return AggCountDistinct, true
	default:
		return 0, false
	}
}

// Holistic reports whether the aggregate's partial state grows with the
// input, making hierarchical computation unattractive (§3.3.4).
func (k AggKind) Holistic() bool { return k == AggCountDistinct }

// aggState accumulates one group's aggregate. One value type serves every
// kind, so a GroupSet keeps its states in one flat slab with no per-state
// allocation; the kind is the spec's and is passed in, never stored. The
// fields each kind uses:
//
//	count          n
//	sum            n (integer inputs), f (float inputs, promoted from n
//	               on the first), isFloat, any
//	min, max       best, any
//	avg            f (sum), n (count)
//	countdistinct  seen (nil until the first input)
//
// An unknown kind counts, as count does. The zero aggState is every
// kind's empty state: count 0, sum 0, min/max/avg null.
type aggState struct {
	n       int64
	f       float64
	best    tuple.Value
	seen    map[string]struct{}
	isFloat bool
	any     bool
}

// add folds in one raw input value. Incompatible values are ignored
// (best-effort policy). AddBatch calls it only where no typed kernel
// applies (mixed-kind columns, holistic aggregates), and merge for
// min/max partials; the shipped runs take neither path.
func (s *aggState) add(k AggKind, v tuple.Value) {
	switch k {
	case AggSum:
		if i, ok := v.AsInt(); ok {
			s.n += i
			s.any = true
			return
		}
		if f, ok := v.AsFloat(); ok {
			if !s.isFloat {
				s.f = float64(s.n)
				s.isFloat = true
			}
			s.f += f
			s.any = true
		}
	case AggMin, AggMax:
		if v.IsNull() {
			return
		}
		if !s.any {
			s.best, s.any = v, true
			return
		}
		if c, ok := tuple.Compare(v, s.best); ok && ((k == AggMin && c < 0) || (k == AggMax && c > 0)) {
			s.best = v
		}
	case AggAvg:
		if f, ok := v.AsFloat(); ok {
			s.f += f
			s.n++
		}
	case AggCountDistinct:
		if s.seen == nil {
			s.seen = make(map[string]struct{})
		}
		s.seen[v.KeyString()] = struct{}{}
	default:
		s.n++
	}
}

// merge folds another partial state of the same kind into this one.
func (s *aggState) merge(k AggKind, o *aggState) {
	switch k {
	case AggSum:
		if !o.any {
			return
		}
		if o.isFloat || s.isFloat {
			sf, _ := s.result(k).AsFloat()
			of, _ := o.result(k).AsFloat()
			s.isFloat = true
			s.f = sf + of
		} else {
			s.n += o.n
		}
		s.any = true
	case AggMin, AggMax:
		if o.any {
			s.add(k, o.best)
		}
	case AggAvg:
		s.f += o.f
		s.n += o.n
	case AggCountDistinct:
		for key := range o.seen {
			if s.seen == nil {
				s.seen = make(map[string]struct{}, len(o.seen))
			}
			s.seen[key] = struct{}{}
		}
	default:
		s.n += o.n
	}
}

// result produces the final value; an empty state yields the kind's
// identity (count 0, sum 0, min/max/avg null).
func (s *aggState) result(k AggKind) tuple.Value {
	switch k {
	case AggSum:
		if s.isFloat {
			return tuple.Float(s.f)
		}
		return tuple.Int(s.n)
	case AggMin, AggMax:
		if !s.any {
			return tuple.Null()
		}
		return s.best
	case AggAvg:
		if s.n == 0 {
			return tuple.Null()
		}
		return tuple.Float(s.f / float64(s.n))
	case AggCountDistinct:
		return tuple.Int(int64(len(s.seen)))
	default:
		return tuple.Int(s.n)
	}
}

// encodeTo serializes the partial state for network shipping.
func (s *aggState) encodeTo(k AggKind, w *wire.Writer) {
	switch k {
	case AggSum:
		w.F64(s.f)
		w.I64(s.n)
		w.Bool(s.isFloat)
		w.Bool(s.any)
	case AggMin, AggMax:
		w.Bool(k == AggMin)
		w.Bool(s.any)
		if s.any {
			// Reuse the tuple codec for the single value.
			tuple.New("").Set("v", s.best).EncodeTo(w)
		}
	case AggAvg:
		w.F64(s.f)
		w.I64(s.n)
	case AggCountDistinct:
		w.U32(uint32(len(s.seen)))
		// Sorted so the wire image is canonical: partial-aggregate
		// messages must be byte-identical run to run for deterministic
		// replay.
		keys := make([]string, 0, len(s.seen))
		for key := range s.seen {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			w.String(key)
		}
	default:
		w.I64(s.n)
	}
}

// decodeAggState reads a partial state of the given kind.
func decodeAggState(k AggKind, r *wire.Reader) aggState {
	var s aggState
	switch k {
	case AggSum:
		s.f = r.F64()
		s.n = r.I64()
		s.isFloat = r.Bool()
		s.any = r.Bool()
	case AggMin, AggMax:
		r.Bool() // the min flag: the spec's kind decides
		s.any = r.Bool()
		if s.any {
			if v, ok := tuple.DecodeFrom(r).Get("v"); ok {
				s.best = v
			}
		}
	case AggAvg:
		s.f = r.F64()
		s.n = r.I64()
	case AggCountDistinct:
		n := int(r.U32())
		for i := 0; i < n && r.Err() == nil; i++ {
			if s.seen == nil {
				s.seen = make(map[string]struct{})
			}
			s.seen[r.String()] = struct{}{}
		}
	default:
		s.n = r.I64()
	}
	return s
}
