package ufl

import (
	"strings"
	"testing"
)

// paramGraphs are graphs whose predicates exercise keying from Params: an
// empty one (Params reads the default, the key the empty value), orderings
// the canonical form flips and sorts, and one whose canonical form is
// longer than a one-byte length prefix holds.
func paramGraphs() []Opgraph {
	ladder, _ := diamondLadder(3)
	graphs := append(dedupGraphs(), ladder)
	long := strings.Repeat("name = 'a long value' OR ", 8) + "z < 1"
	for _, pred := range []string{"", "b < 2 AND 1 <= a", "1 < a OR (c = 3 AND b > 2)", long, "not a pred (("} {
		g := dedupGraphs()[0]
		g.Ops[3].Args = map[string]string{"pred": pred}
		graphs = append(graphs, g)
	}
	return graphs
}

// TestKeyFromParamsMatchesText: a graph keyed from its Params and
// CheckEnds writes the bytes it writes keyed from its text, for every top,
// after whatever the buffer already holds.
func TestKeyFromParamsMatchesText(t *testing.T) {
	for _, g := range paramGraphs() {
		checkKeyFromParams(t, g)
	}
}

func checkKeyFromParams(t *testing.T, g Opgraph) {
	t.Helper()
	ends, err := g.CheckEnds()
	ps, perr := g.Params()
	if err != nil || perr != nil {
		return
	}
	for _, op := range g.Ops {
		want := "prefix" + g.SubtreeKey(op.ID)
		if got := string(g.AppendSubtreeKey([]byte("prefix"), op.ID, ps, ends)); got != want {
			t.Fatalf("graph %q top %q: keyed from Params %q, from its text %q", g.ID, op.ID, got, want)
		}
	}
}

// FuzzKeyFromParams: the same for any decoded graph that Check and Params
// accept.
func FuzzKeyFromParams(f *testing.F) {
	for _, g := range paramGraphs() {
		f.Add(EncodeGraph(g))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if g, err := DecodeGraph(b); err == nil {
			checkKeyFromParams(t, *g)
		}
	})
}
