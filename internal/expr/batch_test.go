package expr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pier/internal/tuple"
)

// evalCode maps row-wise Eval's (value, ok) to the batch tri-state.
func evalCode(e Expr, t *tuple.Tuple) int8 {
	v, ok := e.Eval(t)
	if !ok {
		return RowMalformed
	}
	b, ok := v.AsBool()
	if !ok {
		return RowMalformed
	}
	if b {
		return RowPass
	}
	return RowFail
}

// randPredBatch builds a columnar batch whose columns deliberately mix
// kinds (ints, floats, strings, nulls) so comparisons hit every branch:
// pass, fail, and malformed.
func randPredBatch(rng *rand.Rand, n int) *tuple.Batch {
	b := tuple.NewColumnarBatch("t", []string{"a", "b", "flag", "s"}, n)
	mixedVal := func() tuple.Value {
		switch rng.Intn(5) {
		case 0:
			return tuple.Int(rng.Int63n(20) - 10)
		case 1:
			return tuple.Float(float64(rng.Intn(20)) - 10)
		case 2:
			return tuple.String(fmt.Sprintf("v%d", rng.Intn(5)))
		case 3:
			return tuple.Null()
		default:
			return tuple.Bool(rng.Intn(2) == 0)
		}
	}
	for i := 0; i < n; i++ {
		b.AppendRow([]tuple.Value{
			mixedVal(),
			mixedVal(),
			mixedVal(),
			tuple.String(fmt.Sprintf("v%d", rng.Intn(5))),
		})
	}
	return b
}

var predCases = []struct {
	name string
	e    Expr
}{
	{"const true", Const{Val: tuple.Bool(true)}},
	{"const non-bool", Const{Val: tuple.Int(3)}},
	{"col flag", Col{Name: "flag"}},
	{"col missing", Col{Name: "nope"}},
	{"cmp col const", Cmp{Op: GT, L: Col{Name: "a"}, R: Const{Val: tuple.Int(0)}}},
	{"cmp col col", Cmp{Op: LE, L: Col{Name: "a"}, R: Col{Name: "b"}}},
	{"cmp const const", Cmp{Op: NE, L: Const{Val: tuple.Int(1)}, R: Const{Val: tuple.Int(2)}}},
	{"cmp string", Cmp{Op: EQ, L: Col{Name: "s"}, R: Const{Val: tuple.String("v2")}}},
	{"cmp missing col", Cmp{Op: EQ, L: Col{Name: "nope"}, R: Const{Val: tuple.Int(1)}}},
	{"and short-circuit", And{
		L: Cmp{Op: LT, L: Col{Name: "a"}, R: Const{Val: tuple.Int(0)}},
		R: Cmp{Op: GT, L: Col{Name: "b"}, R: Const{Val: tuple.Int(0)}},
	}},
	{"and false-left beats malformed-right", And{
		L: Const{Val: tuple.Bool(false)},
		R: Col{Name: "nope"},
	}},
	{"or true-left beats malformed-right", Or{
		L: Const{Val: tuple.Bool(true)},
		R: Col{Name: "nope"},
	}},
	{"or", Or{
		L: Cmp{Op: EQ, L: Col{Name: "s"}, R: Const{Val: tuple.String("v0")}},
		R: Cmp{Op: GE, L: Col{Name: "a"}, R: Col{Name: "b"}},
	}},
	{"not", Not{E: Cmp{Op: GT, L: Col{Name: "a"}, R: Const{Val: tuple.Int(0)}}}},
	{"not malformed stays malformed", Not{E: Col{Name: "nope"}}},
	{"nested", And{
		L: Or{
			L: Cmp{Op: GT, L: Col{Name: "a"}, R: Const{Val: tuple.Int(2)}},
			R: Cmp{Op: LT, L: Col{Name: "b"}, R: Const{Val: tuple.Int(-2)}},
		},
		R: Not{E: Cmp{Op: EQ, L: Col{Name: "s"}, R: Const{Val: tuple.String("v1")}}},
	}},
	{"right-nested", And{
		L: Cmp{Op: NE, L: Col{Name: "a"}, R: Const{Val: tuple.Int(3)}},
		R: Or{
			L: Cmp{Op: EQ, L: Col{Name: "s"}, R: Const{Val: tuple.String("v0")}},
			R: And{
				L: Col{Name: "flag"},
				R: Cmp{Op: GE, L: Col{Name: "a"}, R: Col{Name: "b"}},
			},
		},
	}},
}

// The compiled batch predicate must agree with row-wise Eval on every row,
// including the malformed tri-state and short-circuit interactions.
func TestCompilePredMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range predCases {
		bp := CompilePred(tc.e)
		for trial := 0; trial < 10; trial++ {
			b := randPredBatch(rng, 1+rng.Intn(40))
			out := make([]int8, b.Len())
			bp(b, out)
			for i := 0; i < b.Len(); i++ {
				want := evalCode(tc.e, b.Row(i))
				if out[i] != want {
					t.Fatalf("%s trial %d row %d (%v): compiled=%d eval=%d",
						tc.name, trial, i, b.Row(i), out[i], want)
				}
			}
		}
	}
}

// And/Or scratch comes from out's spare capacity when it has len(out) of
// it (nested right sides stack further into it) and from a pool when not;
// either way the verdicts are Eval's whatever the spare bytes held. One
// BatchPred keeps no buffers, so goroutines may share it.
func TestCompilePredScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range predCases {
		bp := CompilePred(tc.e)
		b := randPredBatch(rng, 1+rng.Intn(40))
		n := b.Len()
		want := make([]int8, n)
		for i := range want {
			want[i] = evalCode(tc.e, b.Row(i))
		}
		for _, spare := range []int{0, n - 1, n, 3 * n} {
			buf := make([]int8, n+spare)
			for i := range buf {
				buf[i] = int8(rng.Intn(256) - 128)
			}
			out := buf[:n]
			bp(b, out)
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("%s, %d spare: row %d compiled=%d eval=%d", tc.name, spare, i, out[i], want[i])
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					out := make([]int8, n, n+n*(g%3))
					bp(b, out)
					for i := range want {
						if out[i] != want[i] {
							t.Errorf("%s, goroutine %d: row %d compiled=%d eval=%d", tc.name, g, i, out[i], want[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// Selections must be honored: the compiled predicate sees logical rows.
func TestCompilePredOnSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := Cmp{Op: GT, L: Col{Name: "a"}, R: Const{Val: tuple.Int(0)}}
	bp := CompilePred(e)
	b := randPredBatch(rng, 30)
	var keep []int32
	for i := 0; i < b.Len(); i += 3 {
		keep = append(keep, int32(i))
	}
	view := b.SelectLogical(keep)
	out := make([]int8, view.Len())
	bp(view, out)
	for i := 0; i < view.Len(); i++ {
		if want := evalCode(e, view.Row(i)); out[i] != want {
			t.Fatalf("selected row %d: compiled=%d eval=%d", i, out[i], want)
		}
	}
}

// Shapes outside the compiled subset — alone, under a Cmp, inside an
// And or a Not — compile to a per-row Eval and agree with it on every
// row, selected rows included.
func TestCompilePredEvalsUncompilable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arith := Arith{Op: Add, L: Col{Name: "a"}, R: Const{Val: tuple.Int(1)}}
	cases := []Expr{
		arith,
		Cmp{Op: GT, L: arith, R: Const{Val: tuple.Int(0)}},
		And{L: Const{Val: tuple.Bool(true)}, R: Cmp{Op: GT, L: arith, R: Col{Name: "b"}}},
		Not{E: Cmp{Op: EQ, L: arith, R: arith}},
		Or{L: Col{Name: "flag"}, R: Cmp{Op: LT, L: Neg{E: Col{Name: "b"}}, R: Col{Name: "a"}}},
	}
	for i, e := range cases {
		bp := CompilePred(e)
		b := randPredBatch(rng, 40)
		b = b.SelectLogical([]int32{0, 2, 3, 5, 8, 13, 21, 34})
		out := make([]int8, b.Len())
		bp(b, out)
		for r := range out {
			if want := evalCode(e, b.Row(r)); out[r] != want {
				t.Errorf("case %d (%s) row %d: compiled=%d eval=%d", i, e, r, out[r], want)
			}
		}
	}
}
