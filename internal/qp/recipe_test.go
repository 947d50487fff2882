package qp

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
)

// recipeArgs are arguments each operator kind builds with; a recipe
// graph's ops take them, so most recipes are graphs Check's verdict alone
// decides.
var recipeArgs = map[string]map[string]string{
	"Scan":         {"table": "fw"},
	"NewData":      {"table": "fw"},
	"Select":       {"pred": "sev > 2"},
	"Project":      {"cols": "src, sev"},
	"Join":         {"leftkey": "src", "rightkey": "src"},
	"GroupBy":      {"keys": "src", "aggs": "count(*) as cnt", "flushevery": "1s"},
	"TopK":         {"k": "3", "col": "sev"},
	"Limit":        {"n": "5"},
	"Tee":          {},
	"FetchMatches": {"ns": "fm", "key": "src"},
	"HierAgg":      {"keys": "src", "aggs": "count(*) as cnt", "senddelay": "200ms"},
	"BloomBuild":   {"ns": "bf", "key": "src", "expected": "64"},
	"BloomFilter":  {"ns": "bf", "key": "src", "fetchdelay": "500ms"},
	"Put":          {"ns": "out", "key": "src"},
	"Result":       {},
}

// Each kind's shape, written here independently of the operator table:
// input slots, whether it emits nothing, whether it may feed several.
var (
	recipeInputs = map[string]int{"Scan": 0, "NewData": 0, "Join": 2}
	recipeSinks  = map[string]bool{"Result": true, "Put": true, "BloomBuild": true}
)

func recipeArity(kind string) int {
	if n, ok := recipeInputs[kind]; ok {
		return n
	}
	return 1
}

// recipeGraph reads data as a recipe for a graph of at most six ops: an op
// count, then per op a kind byte (the table's kinds, in order) and an
// argument byte (mostly the kind's recipe arguments; a few values add an
// argument no kind reads or spoil the value of one it does), then an edge
// count and per edge a producer, a consumer and a slot byte.
func recipeGraph(data []byte) ufl.Opgraph {
	kinds := ufl.Kinds()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := ufl.Opgraph{ID: "g", Dissem: ufl.Dissemination{Mode: ufl.DissemBroadcast}}
	n := 1 + next()%6
	for i := 0; i < n; i++ {
		kind := kinds[next()%len(kinds)]
		args, names := map[string]string{}, []string{}
		for k, v := range recipeArgs[kind] {
			args[k], names = v, append(names, k)
		}
		sort.Strings(names)
		switch next() % 16 {
		case 0:
			args["bogus"] = "1"
		case 1:
			if len(names) > 0 {
				args[names[0]] = "(("
			}
		}
		g.Ops = append(g.Ops, ufl.OpSpec{ID: fmt.Sprintf("o%d", i), Kind: kind, Args: args})
	}
	for m := next() % 9; m > 0; m-- {
		from, to, slot := next()%n, next()%n, next()%3
		g.Edges = append(g.Edges, ufl.Edge{From: g.Ops[from].ID, To: g.Ops[to].ID, Slot: slot})
	}
	return g
}

// recipeVerdict is the reference for Check on a recipe graph: every
// argument one its kind reads, every slot within its consumer's inputs and
// fed once, nothing out of a sink, fan-out above one only from a Tee, no
// cycle (DFS colouring) and every op reaching a sink (reverse
// reachability).
func recipeVerdict(g ufl.Opgraph) bool {
	at := map[string]int{}
	for i, op := range g.Ops {
		at[op.ID] = i
		for name := range op.Args {
			if _, ok := recipeArgs[op.Kind][name]; !ok && name != "flushevery" {
				return false
			}
		}
	}
	out := make([][]int, len(g.Ops))
	in := make([][]int, len(g.Ops))
	fed := map[[2]int]bool{}
	for _, e := range g.Edges {
		from, to := at[e.From], at[e.To]
		if e.Slot >= recipeArity(g.Ops[to].Kind) || recipeSinks[g.Ops[from].Kind] || fed[[2]int{to, e.Slot}] {
			return false
		}
		fed[[2]int{to, e.Slot}] = true
		out[from] = append(out[from], to)
		in[to] = append(in[to], from)
	}
	for i, op := range g.Ops {
		if len(out[i]) > 1 && op.Kind != "Tee" {
			return false
		}
	}
	colour := make([]int, len(g.Ops)) // 0 unseen, 1 on the stack, 2 done
	var cyclic func(i int) bool
	cyclic = func(i int) bool {
		colour[i] = 1
		for _, j := range out[i] {
			if colour[j] == 1 || colour[j] == 0 && cyclic(j) {
				return true
			}
		}
		colour[i] = 2
		return false
	}
	for i := range g.Ops {
		if colour[i] == 0 && cyclic(i) {
			return false
		}
	}
	reach := make([]bool, len(g.Ops))
	var mark func(i int)
	mark = func(i int) {
		if !reach[i] {
			reach[i] = true
			for _, j := range in[i] {
				mark(j)
			}
		}
	}
	for i, op := range g.Ops {
		if recipeSinks[op.Kind] {
			mark(i)
		}
	}
	for i := range reach {
		if !reach[i] {
			return false
		}
	}
	return true
}

// TestRecipeArgsCoverTheTable: the recipe holds buildable arguments for
// every kind in the operator table, so a new kind fails here until the
// fuzz target can draw it.
func TestRecipeArgsCoverTheTable(t *testing.T) {
	for _, kind := range ufl.Kinds() {
		args, ok := recipeArgs[kind]
		if !ok {
			t.Errorf("no recipe arguments for %s", kind)
			continue
		}
		g := ufl.Opgraph{ID: "g", Ops: []ufl.OpSpec{{ID: "a", Kind: kind, Args: args}}}
		if _, err := g.Params(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if len(recipeArgs) != len(ufl.Kinds()) {
		t.Errorf("recipe arguments for %d kinds, the table has %d", len(recipeArgs), len(ufl.Kinds()))
	}
}

// FuzzGraphRecipe: for any recipe graph, Check's verdict equals the
// reference's; a graph it accepts, delivered in a dissemination frame,
// builds and runs on a node without a crash and leaves nothing behind at
// teardown; and a shared plan's chain holds exactly the ops its key
// covers — every op but the tail lies beneath the top.
func FuzzGraphRecipe(f *testing.F) {
	// Kind bytes index ufl.Kinds(): 0 Scan, 1 NewData, 2 Select, 4 Join,
	// 8 Tee, 14 Result.
	f.Add([]byte{1, 1, 2, 14, 2, 1, 0, 1, 0})                                        // NewData -> Result: shared
	f.Add([]byte{2, 0, 2, 2, 2, 14, 2, 2, 0, 1, 0, 1, 2, 0})                         // Scan -> Select -> Result
	f.Add([]byte{3, 1, 2, 8, 2, 2, 2, 14, 2, 4, 0, 1, 0, 1, 2, 0, 2, 1, 0, 1, 3, 0}) // a cycle through a Tee
	f.Add([]byte{1, 1, 2, 2, 2, 1, 0, 1, 0})                                         // a tail-less chain
	f.Add([]byte{3, 0, 2, 0, 2, 4, 2, 14, 2, 3, 0, 2, 0, 1, 2, 1, 2, 3, 0})          // a join
	f.Add([]byte{2, 0, 2, 2, 0, 14, 2, 2, 0, 1, 0, 1, 2, 0})                         // an argument no kind reads
	f.Add([]byte{2, 0, 2, 2, 1, 14, 2, 2, 0, 1, 0, 1, 2, 0})                         // a predicate that does not parse
	f.Fuzz(func(t *testing.T, data []byte) {
		g := recipeGraph(data)
		err := g.Check()
		if want := recipeVerdict(g); (err == nil) != want {
			t.Fatalf("Check(%+v) = %v, reference verdict %v", g, err, want)
		}
		if err != nil {
			return
		}
		ps, perr := g.Params()
		if perr == nil {
			if tail, top, shared := sharePlan(&g, ps); shared {
				under := map[string]bool{top: true}
				for grew := true; grew; {
					grew = false
					for _, e := range g.Edges {
						if under[e.To] && !under[e.From] {
							under[e.From], grew = true, true
						}
					}
				}
				if under[tail] || len(under) != len(g.Ops)-1 {
					t.Fatalf("shared plan of %+v: %d ops beneath top %q, want every op but tail %q", g, len(under), top, tail)
				}
			}
		}
		env := sim.NewEnv(sim.Options{Seed: 1})
		n := NewNode(env.Spawn("recipe"), Config{})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		n.PublishLocal("fw", tuple.New("fw").Set("src", tuple.String("a")).Set("sev", tuple.Int(5)), time.Hour)
		n.handleMessage(vri.Addr("peer"), graphFrame("r", n.Addr(), fuzzDeadline, g))
		env.Run(2 * time.Second)
		st := n.Stats()
		if ran := st.GraphsExecuted + st.GraphsRejected; ran != 1 || (perr == nil) != (st.GraphsExecuted == 1) {
			t.Fatalf("%+v: executed %d, rejected %d; its arguments parse: %v", g, st.GraphsExecuted, st.GraphsRejected, perr == nil)
		}
		n.Stop()
		st = n.Stats()
		if leaked := st.LiveGraphs + st.Subscriptions + st.SharedSubscriptions + st.SharedSubtrees +
			st.SubtreeAttachments + st.WheelSlots + st.PendingSends + st.TrackedClients + st.HeldRows; leaked != 0 {
			t.Fatalf("%+v leaked after teardown: %+v", g, st)
		}
	})
}
