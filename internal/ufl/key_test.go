package ufl

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/expr"
)

// TestSignatureStructural: identical structure under renamed op ids hashes
// the same; different structure hashes differently, a query id embedded in
// an argument included, and the query id a caller passes changes nothing.
func TestSignatureStructural(t *testing.T) {
	a := sampleGraph("g1", "fwlogs")
	b := sampleGraph("zzz", "fwlogs")
	// Rename every op id; wiring stays isomorphic.
	b.Ops[0].ID, b.Ops[1].ID, b.Ops[2].ID = "s2", "a2", "o2"
	b.Edges = []Edge{{From: "s2", To: "a2"}, {From: "a2", To: "o2"}}
	if a.Signature("") != b.Signature("") {
		t.Fatal("op renaming changed the structural signature")
	}

	// Namespaces that embed their query's id are different namespaces:
	// no query id is rewritten, whichever one the caller passes.
	qa, qb := sampleGraph("p1", "t"), sampleGraph("p1", "t")
	qa.Ops[1].Args["ns"] = "query-17.partial"
	qb.Ops[1].Args["ns"] = "query-99.partial"
	if qa.Signature("query-17") == qb.Signature("query-99") {
		t.Fatal("graphs reading different namespaces sign alike")
	}
	if qa.Signature("query-17") != qa.Signature("") || qa.Signature("query-17") != qa.Signature("query-99") {
		t.Fatal("the query id passed changed a signature")
	}

	// Structural differences must show.
	c := sampleGraph("g1", "otherlogs")
	if a.Signature("") == c.Signature("") {
		t.Fatal("different scan table, same signature")
	}
	d := sampleGraph("g1", "fwlogs")
	d.Edges = []Edge{{From: "scan", To: "agg"}, {From: "agg", To: "out", Slot: 1}}
	if a.Signature("") == d.Signature("") {
		t.Fatal("different slot wiring, same signature")
	}
	e := sampleGraph("g1", "fwlogs")
	e.Dissem = Dissemination{Mode: DissemLocal}
	if a.Signature("") == e.Signature("") {
		t.Fatal("different dissemination mode, same signature")
	}
}

// TestSubtreeSignatures: per-op subtree keys unify across op renames when
// (and only when) the entire upstream chain matches structurally, and
// they differ wherever a query id makes two values differ.
func TestSubtreeSignatures(t *testing.T) {
	keys := func(g Opgraph) map[string]string {
		out := map[string]string{}
		for _, op := range g.Ops {
			out[op.ID] = g.SubtreeKey(op.ID)
		}
		return out
	}
	a := sampleGraph("g1", "fwlogs")
	b := sampleGraph("zzz", "fwlogs")
	b.Ops[0].ID, b.Ops[1].ID, b.Ops[2].ID = "s2", "a2", "o2"
	b.Edges = []Edge{{From: "s2", To: "a2"}, {From: "a2", To: "o2"}}
	sa, sb := keys(a), keys(b)
	if sa["scan"] != sb["s2"] || sa["agg"] != sb["a2"] || sa["out"] != sb["o2"] {
		t.Fatalf("op renaming changed subtree keys: %q vs %q", sa, sb)
	}

	// A shared prefix unifies even when the tails differ: the agg subtree
	// over the same scan keys the same whether a Result or a Put
	// consumes it.
	c := sampleGraph("g1", "fwlogs")
	c.Ops[2] = OpSpec{ID: "out", Kind: "Put", Args: map[string]string{"table": "sink"}}
	sc := keys(c)
	if sa["agg"] != sc["agg"] {
		t.Fatal("differing tail changed an upstream subtree key")
	}
	if sa["out"] == sc["out"] {
		t.Fatal("Result and Put tails over the same chain must differ")
	}

	// A differing source propagates all the way down.
	sd := keys(sampleGraph("g1", "otherlogs"))
	if sa["scan"] == sd["scan"] || sa["agg"] == sd["agg"] || sa["out"] == sd["out"] {
		t.Fatal("different scan table must change every downstream subtree key")
	}

	// Query-id-embedded argument values are part of the key.
	qa, qb := sampleGraph("p1", "t"), sampleGraph("p1", "t")
	qa.Ops[1].Args["ns"] = "query-17.partial"
	qb.Ops[1].Args["ns"] = "query-99.partial"
	if qa.SubtreeKey("agg") == qb.SubtreeKey("agg") {
		t.Fatal("subtrees reading different namespaces key alike")
	}

	// Dissemination context is part of every subtree's identity.
	e := sampleGraph("g1", "fwlogs")
	e.Dissem = Dissemination{Mode: DissemLocal}
	if sa["scan"] == e.SubtreeKey("scan") {
		t.Fatal("dissemination mode must be part of the subtree key")
	}

	// Slot wiring matters.
	f := sampleGraph("g1", "fwlogs")
	f.Edges = []Edge{{From: "scan", To: "agg", Slot: 1}, {From: "agg", To: "out"}}
	if sa["agg"] == f.SubtreeKey("agg") {
		t.Fatal("different input slot, same subtree key")
	}

	// Cycles terminate instead of recursing forever.
	g := sampleGraph("g1", "fwlogs")
	g.Edges = append(g.Edges, Edge{From: "out", To: "scan"})
	_ = keys(g)
}

// TestSignatureCanonicalizesPredicates: predicate arguments that differ
// only in commutative And/Or operand order or comparison direction key
// alike — a human-authored "b<2 AND a>1" hits the subtree cache built for
// "a>1 AND b<2".
func TestSignatureCanonicalizesPredicates(t *testing.T) {
	withPred := func(pred string) Opgraph {
		g := sampleGraph("g", "fwlogs")
		g.Ops = []OpSpec{
			g.Ops[0],
			{ID: "sel", Kind: "Select", Args: map[string]string{"pred": pred}},
			g.Ops[1],
			g.Ops[2],
		}
		g.Edges = []Edge{{From: "scan", To: "sel"}, {From: "sel", To: "agg"}, {From: "agg", To: "out"}}
		return g
	}
	equiv := [][2]string{
		{"a > 1 AND b < 2", "b < 2 AND a > 1"},
		{"a > 1 AND b < 2 AND c = 3", "c = 3 AND b < 2 AND a > 1"},
		{"a = 1 OR b = 2", "b = 2 OR a = 1"},
		{"a > 1", "1 < a"},
		{"a >= 1 AND 2 > b", "b < 2 AND 1 <= a"},
	}
	for _, pair := range equiv {
		x, y := withPred(pair[0]), withPred(pair[1])
		if x.Signature("") != y.Signature("") {
			t.Errorf("Signature(%q) != Signature(%q)", pair[0], pair[1])
		}
		if x.SubtreeKey("sel") != y.SubtreeKey("sel") {
			t.Errorf("subtree key of %q != %q", pair[0], pair[1])
		}
		if x.SubtreeKey("out") != y.SubtreeKey("out") {
			t.Errorf("tail subtree key of %q != %q", pair[0], pair[1])
		}
	}
	// Genuinely different predicates must not unify, parseable or not.
	for _, pair := range [][2]string{
		{"a > 1 AND b < 2", "a > 1 AND b < 3"},
		{"a > 1", "a >= 1"},
		{"not a pred ((", "also not a pred )("},
	} {
		x, y := withPred(pair[0]), withPred(pair[1])
		if x.Signature("") == y.Signature("") {
			t.Errorf("Signature(%q) == Signature(%q)", pair[0], pair[1])
		}
		if x.SubtreeKey("sel") == y.SubtreeKey("sel") {
			t.Errorf("subtree key of %q == %q", pair[0], pair[1])
		}
	}
}

// TestMentionsDecidesSignatureReuse: the query ids a graph mentions decide
// whether it reuses another graph's key. Wherever an id appears — the
// dissemination namespace or key, an argument value, a predicate, as a
// whole value or a prefix — two graphs naming q7 and q8 key apart and
// sign apart, while two graphs naming the same id key and sign alike.
func TestMentionsDecidesSignatureReuse(t *testing.T) {
	cases := map[string]func(g *Opgraph, id string){
		"namespace": func(g *Opgraph, id string) {
			g.Dissem = Dissemination{Mode: DissemEquality, Namespace: id + ".partial", Key: "k"}
		},
		"dissemination key": func(g *Opgraph, id string) {
			g.Dissem = Dissemination{Mode: DissemEquality, Namespace: "files", Key: id}
		},
		"argument prefix": func(g *Opgraph, id string) { g.Ops[1].Args["ns"] = id + "!agg" },
		"whole argument":  func(g *Opgraph, id string) { g.Ops[0].Args["table"] = id },
		"predicate":       func(g *Opgraph, id string) { g.Ops[1].Args["pred"] = id + " > 5" },
		"unparsed predicate": func(g *Opgraph, id string) {
			g.Ops[1].Args["pred"] = id + ".x >"
		},
	}
	for name, edit := range cases {
		a, b, c := sampleGraph("g", "t"), sampleGraph("g", "t"), sampleGraph("g", "t")
		edit(&a, "q7")
		edit(&b, "q8")
		edit(&c, "q7")
		if a.SubtreeKey("out") == b.SubtreeKey("out") || a.Signature("q7") == b.Signature("q8") {
			t.Errorf("%s: graphs naming q7 and q8 key alike", name)
		}
		if a.SubtreeKey("out") != c.SubtreeKey("out") || a.Signature("q7") != c.Signature("q7") {
			t.Errorf("%s: two graphs naming q7 key apart", name)
		}
	}
}

// TestSignatureNormalizationIsTokenAnchored: a key normalizes only whole
// tokens of a graph's text (a kind's case, a parsed predicate's canonical
// form) and never rewrites a query id out of it: "fw" inside table
// 'fwlogs' is left alone whatever id the caller passes, 'fw.partial' and
// 'q9.partial' key apart, and "fw > 5" keys as its canonical "5 < fw".
func TestSignatureNormalizationIsTokenAnchored(t *testing.T) {
	a := sampleGraph("g", "fwlogs")
	b := sampleGraph("g", "fwlogs")
	if a.SubtreeKey("out") != b.SubtreeKey("out") || a.Signature("fw") != b.Signature("some-other-id") {
		t.Fatal("equal graphs key apart")
	}
	qa, qb := sampleGraph("g", "t"), sampleGraph("g", "t")
	qa.Ops[1].Args["ns"] = "fw.partial"
	qb.Ops[1].Args["ns"] = "q9.partial"
	if qa.SubtreeKey("out") == qb.SubtreeKey("out") || qa.Signature("fw") == qb.Signature("q9") {
		t.Fatal("a query-id prefix was rewritten out of the key")
	}
	pa, pb := sampleGraph("g", "t"), sampleGraph("g", "t")
	pa.Ops[1].Args["pred"] = "fw > 5"
	pb.Ops[1].Args["pred"] = "5 < fw"
	if pa.SubtreeKey("out") != pb.SubtreeKey("out") {
		t.Fatal("a predicate and its canonical form key apart")
	}
}

// diamondLadder is k diamonds stacked: level i splits level i-1 through a
// Tee into two Selects and joins them again, so 2^k input paths lead from
// the source to the top.
func diamondLadder(k int) (Opgraph, string) {
	g := Opgraph{ID: "ladder", Dissem: Dissemination{Mode: DissemLocal}}
	g.Ops = append(g.Ops, OpSpec{ID: "l0", Kind: "NewData", Args: map[string]string{"table": "t"}})
	for i := 1; i <= k; i++ {
		prev, tee, l, r, join := fmt.Sprintf("l%d", i-1), fmt.Sprintf("t%d", i), fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("l%d", i)
		g.Ops = append(g.Ops,
			OpSpec{ID: tee, Kind: "Tee", Args: map[string]string{}},
			OpSpec{ID: l, Kind: "Select", Args: map[string]string{"pred": "v > 1"}},
			OpSpec{ID: r, Kind: "Select", Args: map[string]string{"pred": "v < 9"}},
			OpSpec{ID: join, Kind: "Join", Args: map[string]string{"left": "v", "right": "v"}})
		g.Edges = append(g.Edges,
			Edge{From: prev, To: tee},
			Edge{From: tee, To: l}, Edge{From: tee, To: r},
			Edge{From: l, To: join, Slot: 0}, Edge{From: r, To: join, Slot: 1})
	}
	top := fmt.Sprintf("l%d", k)
	g.Ops = append(g.Ops, OpSpec{ID: "out", Kind: "Result", Args: map[string]string{}})
	g.Edges = append(g.Edges, Edge{From: top, To: "out"})
	return g, top
}

// TestSubtreeKeyIsLinearInTheGraph: a diamond ladder opens 2^k paths into
// its top, but its key writes every op once, so it grows by the same few
// bytes per level, and keying and signing a 64-level ladder (2^64 paths)
// finishes.
func TestSubtreeKeyIsLinearInTheGraph(t *testing.T) {
	size := func(k int) int {
		g, top := diamondLadder(k)
		return len(g.SubtreeKey(top))
	}
	perLevel := size(2) - size(1)
	for _, k := range []int{8, 16, 32, 64} {
		// Visit numbers past 127 take a second varint byte, one per
		// reference: a level refers to its Tee once.
		if got, max := size(k), size(1)+(k-1)*(perLevel+1); got > max {
			t.Fatalf("%d-level ladder keys to %d bytes, more than %d at %d per level", k, got, max, perLevel)
		}
	}
	g, _ := diamondLadder(64)
	done := make(chan struct{})
	go func() {
		g.Signature("")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("signing a 64-level diamond ladder did not finish: the walk is exponential in the levels")
	}
}

// reachable returns the ids of the ops in top's subtree.
func reachable(g *Opgraph, top string) map[string]bool {
	seen := map[string]bool{}
	var walk func(id string)
	walk = func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		for _, e := range g.Edges {
			if e.To == id {
				walk(e.From)
			}
		}
	}
	walk(top)
	return seen
}

// cloneGraph deep-copies g, so an edit leaves the original alone.
func cloneGraph(g Opgraph) Opgraph {
	c := g
	c.Ops = make([]OpSpec, len(g.Ops))
	for i, op := range g.Ops {
		c.Ops[i] = op
		c.Ops[i].Args = make(map[string]string, len(op.Args))
		for k, v := range op.Args {
			c.Ops[i].Args[k] = v
		}
	}
	c.Edges = append([]Edge(nil), g.Edges...)
	return c
}

// FuzzSubtreeKey: for any valid decoded graph and any top in it, the key
// is unchanged by renaming the op ids, by reordering Ops and by an
// encode/decode round trip, and it changes when one kind, argument name,
// argument value (outside canonical-predicate equivalence), input slot or
// input edge under the top changes, or one dissemination field does.
func FuzzSubtreeKey(f *testing.F) {
	for _, g := range dedupGraphs() {
		f.Add(EncodeGraph(g), uint8(1), uint8(0))
	}
	ladder, _ := diamondLadder(3)
	f.Add(EncodeGraph(ladder), uint8(12), uint8(5))
	f.Add(EncodeGraph(sampleGraph("g", "fwlogs")), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, b []byte, pick, rot uint8) {
		g, err := DecodeGraph(b)
		if err != nil {
			return
		}
		q := Query{ID: "q", Graphs: []Opgraph{*g}}
		if q.Validate() != nil {
			return
		}
		top := g.Ops[int(pick)%len(g.Ops)].ID
		key := g.SubtreeKey(top)
		if again := g.SubtreeKey(top); again != key {
			t.Fatal("two keys of one graph differ")
		}
		same := func(what string, h Opgraph, top string) {
			t.Helper()
			if h.SubtreeKey(top) != key {
				t.Fatalf("%s changed the key of %q", what, top)
			}
		}
		differs := func(what string, h Opgraph) {
			t.Helper()
			if h.SubtreeKey(top) == key {
				t.Fatalf("%s under %q left its key unchanged", what, top)
			}
		}

		dec, err := DecodeGraph(EncodeGraph(*g))
		if err != nil {
			t.Fatal(err)
		}
		same("a round trip", *dec, top)

		renamed, names := cloneGraph(*g), map[string]string{}
		for i := range renamed.Ops {
			names[renamed.Ops[i].ID] = fmt.Sprintf("r%d", len(renamed.Ops)-i)
			renamed.Ops[i].ID = names[renamed.Ops[i].ID]
		}
		for i := range renamed.Edges {
			renamed.Edges[i].From, renamed.Edges[i].To = names[renamed.Edges[i].From], names[renamed.Edges[i].To]
		}
		same("renaming the ops", renamed, names[top])

		reordered := cloneGraph(*g)
		r := int(rot) % len(reordered.Ops)
		reordered.Ops = append(reordered.Ops[r:], reordered.Ops[:r]...)
		same("reordering Ops", reordered, top)

		h := cloneGraph(*g)
		h.Dissem.Mode += "x"
		differs("a dissemination mode", h)
		h = cloneGraph(*g)
		h.Dissem.Namespace += "x"
		differs("a dissemination namespace", h)
		h = cloneGraph(*g)
		h.Dissem.Key += "x"
		differs("a dissemination key", h)

		under := reachable(g, top)
		for i, op := range g.Ops {
			if !under[op.ID] {
				continue
			}
			h := cloneGraph(*g)
			h.Ops[i].Kind += "x"
			differs("a kind", h)
			for name, val := range op.Args {
				if _, taken := op.Args[name+"x"]; !taken {
					h := cloneGraph(*g)
					delete(h.Ops[i].Args, name)
					h.Ops[i].Args[name+"x"] = val
					differs("an argument name", h)
				}
				if name != "pred" || expr.CanonicalString(val+"x") != expr.CanonicalString(val) {
					h := cloneGraph(*g)
					h.Ops[i].Args[name] = val + "x"
					differs("an argument value", h)
				}
			}
		}
		for j, e := range g.Edges {
			if !under[e.To] {
				continue
			}
			h := cloneGraph(*g)
			h.Edges[j].Slot++
			differs("an input slot", h)
			h = cloneGraph(*g)
			h.Edges = append(h.Edges[:j], h.Edges[j+1:]...)
			differs("dropping an input edge", h)
		}
	})
}
