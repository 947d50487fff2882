package exec

import (
	"math/rand"

	"pier/internal/expr"
	"pier/internal/tuple"
)

// Eddy is the adaptive routing operator of §4.2.2: a set of filter
// modules is "wired up" to the eddy, which routes each tuple through all
// of them in an order it adapts at runtime — the prototype distributed
// reoptimization mechanism PIER implemented (FREddies). A tuple that
// passes every module is emitted; a tuple rejected by any module dies
// immediately, so routing selective modules first saves work.
//
// The routing policy is lottery scheduling in the spirit of the original
// eddies paper: each module holds tickets proportional to its observed
// drop rate, and the eddy samples the next module from the not-yet-
// visited set by ticket weight, with a floor so every module keeps
// getting explored as data characteristics drift.
type Eddy struct {
	Base
	modules []eddyModule
	rng     *rand.Rand
	// Emitted and Routed count output tuples and module visits, for
	// tests and instrumentation.
	Emitted uint64
	Routed  uint64
	Dropped Discarded
}

type eddyModule struct {
	name string
	pred expr.Expr
	// seen/dropped drive the ticket count.
	seen    uint64
	dropped uint64
}

// NewEddy creates an eddy with the given random source (determinism in
// simulation comes from the node's seeded stream).
func NewEddy(rng *rand.Rand) *Eddy { return &Eddy{rng: rng} }

// AddModule registers one filter module.
func (e *Eddy) AddModule(name string, pred expr.Expr) {
	e.modules = append(e.modules, eddyModule{name: name, pred: pred})
}

// SetChild wires the input subtree.
func (e *Eddy) SetChild(c Op) { e.Adopt(e, c) }

// tickets returns the module's routing weight: modules that drop more get
// more tickets so they run earlier. The +1 floor keeps exploration alive.
func (m *eddyModule) tickets() float64 {
	if m.seen == 0 {
		return 1
	}
	return 1 + 99*float64(m.dropped)/float64(m.seen)
}

// PushBatch routes the batch's rows one at a time, in row order (routing
// is per tuple and every lottery draw moves the shared random stream), and
// emits each survivor as a batch of one.
func (e *Eddy) PushBatch(tag Tag, b *tuple.Batch) {
	for i, n := 0, b.Len(); i < n; i++ {
		if t := b.Row(i); e.route(t) {
			e.Emitted++
			e.Emit(tag, tuple.OfTuple(t))
		}
	}
}

// route sends one tuple through all modules in adaptively chosen order
// and reports whether it passed every one.
func (e *Eddy) route(t *tuple.Tuple) bool {
	remaining := make([]int, len(e.modules))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		// Lottery draw among unvisited modules.
		total := 0.0
		for _, idx := range remaining {
			total += e.modules[idx].tickets()
		}
		draw := e.rng.Float64() * total
		pick := 0
		for i, idx := range remaining {
			draw -= e.modules[idx].tickets()
			if draw <= 0 {
				pick = i
				break
			}
		}
		idx := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)

		m := &e.modules[idx]
		m.seen++
		e.Routed++
		v, ok := m.pred.Eval(t)
		if !ok {
			m.dropped++
			e.Dropped.Inc()
			return false
		}
		b, ok := v.AsBool()
		if !ok || !b {
			m.dropped++
			return false
		}
	}
	return true
}

// ModuleStats reports (seen, dropped) for the named module.
func (e *Eddy) ModuleStats(name string) (seen, dropped uint64) {
	for i := range e.modules {
		if e.modules[i].name == name {
			return e.modules[i].seen, e.modules[i].dropped
		}
	}
	return 0, 0
}
