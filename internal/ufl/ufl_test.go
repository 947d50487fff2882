package ufl

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const sample = `
# Figure-2-style aggregation query.
query top10 timeout 45s

opgraph g1 disseminate broadcast {
    scan = Scan(table='fwlogs')
    sel  = Select(pred='severity >= 3')
    agg  = GroupBy(keys='src', aggs='count(*) as cnt')
    put  = Put(ns='top10.partial', key='src')
    sel <- scan
    agg <- sel          -- trailing comment
    put <- agg
}

opgraph g2 disseminate local {
    recv = Scan(table='top10.partial')
    topk = TopK(k=10, col='cnt')
    out  = Result()
    topk <- recv
    out <- topk
}
`

func TestParseSampleQuery(t *testing.T) {
	q, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "top10" {
		t.Errorf("id = %q", q.ID)
	}
	if q.Timeout != 45*time.Second {
		t.Errorf("timeout = %v", q.Timeout)
	}
	if len(q.Graphs) != 2 {
		t.Fatalf("graphs = %d", len(q.Graphs))
	}
	g1 := q.Graphs[0]
	if g1.Dissem.Mode != DissemBroadcast {
		t.Errorf("g1 mode = %q", g1.Dissem.Mode)
	}
	if len(g1.Ops) != 4 || len(g1.Edges) != 3 {
		t.Errorf("g1 ops=%d edges=%d", len(g1.Ops), len(g1.Edges))
	}
	scan := g1.Op("scan")
	if scan == nil || scan.Kind != "Scan" || scan.Args["table"] != "fwlogs" {
		t.Errorf("scan = %+v", scan)
	}
	sel := g1.Op("sel")
	if sel.Args["pred"] != "severity >= 3" {
		t.Errorf("pred = %q", sel.Args["pred"])
	}
}

func TestParseEdgeSlots(t *testing.T) {
	src := `
query j timeout 10s
opgraph g disseminate local {
    a = Scan(table='r')
    b = Scan(table='s')
    j = Join(leftkey='id', rightkey='id')
    out = Result()
    j.left <- a
    j.right <- b
    out <- j
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	edges := q.Graphs[0].Edges
	if len(edges) != 3 {
		t.Fatalf("edges = %d", len(edges))
	}
	if edges[0].Slot != 0 || edges[0].From != "a" {
		t.Errorf("edge0 = %+v", edges[0])
	}
	if edges[1].Slot != 1 || edges[1].From != "b" {
		t.Errorf("edge1 = %+v", edges[1])
	}
}

func TestParseNumberedSlot(t *testing.T) {
	src := `
query u timeout 10s
opgraph g disseminate local {
    a = Scan(table='r')
    b = Scan(table='s')
    j = Join(leftkey='id', rightkey='id')
    out = Result()
    j.0 <- a
    j.1 <- b
    out <- j
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if e := q.Graphs[0].Edges; e[0].Slot != 0 || e[1].Slot != 1 {
		t.Errorf("slots = %d, %d", e[0].Slot, e[1].Slot)
	}
	if _, err := Parse(strings.Replace(src, "j.1 <- b", "j.3 <- b", 1)); err == nil {
		t.Error("slot 3 of a Join parsed")
	}
}

func TestParseEqualityDissemination(t *testing.T) {
	src := `
query e timeout 10s
opgraph g disseminate equality 'files' 'song.mp3' {
    get = Scan(table='files')
    out = Result()
    out <- get
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := q.Graphs[0].Dissem
	if d.Mode != DissemEquality || d.Namespace != "files" || d.Key != "song.mp3" {
		t.Errorf("dissem = %+v", d)
	}
}

func TestParseQuotedArgsWithCommasAndEscapes(t *testing.T) {
	src := `
query e timeout 10s
opgraph g disseminate local {
    r = Scan(table='t')
    s = Select(pred='name = ''it''''s'' AND x > 1, 5')
    p = Project(cols='a, b')
    out = Result()
    s <- r
    p <- s
    out <- p
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Graphs[0].Op("p").Args["cols"]; got != "a, b" {
		t.Errorf("cols = %q", got)
	}
	if got := q.Graphs[0].Op("s").Args["pred"]; got != "name = 'it''s' AND x > 1, 5" {
		t.Errorf("pred = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no id":           "query\n",
		"unknown mode":    "query q timeout 1s\nopgraph g disseminate flood {\n a = Result()\n}\n",
		"unclosed graph":  "query q timeout 1s\nopgraph g disseminate local {\n a = Result()\n",
		"bad edge slot":   "query q timeout 1s\nopgraph g disseminate local {\n a = Result()\n a.zz <- a\n}\n",
		"edge unknown op": "query q timeout 1s\nopgraph g disseminate local {\n a = Result()\n b <- a\n}\n",
		"no opgraphs":     "query q timeout 1s\n",
		"dup op ids":      "query q timeout 1s\nopgraph g disseminate local {\n a = Result()\n a = Result()\n}\n",
		"equality no ns":  "query q timeout 1s\nopgraph g disseminate equality {\n a = Result()\n}\n",
		"garbage line":    "query q timeout 1s\nopgraph g disseminate local {\n what is this\n}\n",
		"bad timeout":     "query q timeout banana\nopgraph g disseminate local {\n a = Result()\n}\n",
		"unknown kind":    "query q timeout 1s\nopgraph g disseminate local {\n a = Union()\n}\n",
		"unknown arg":     "query q timeout 1s\nopgraph g disseminate local {\n a = Result(note='x')\n}\n",
		"scan ns alias":   "query q timeout 1s\nopgraph g disseminate local {\n s = Scan(ns='t')\n a = Result()\n a <- s\n}\n",
		"slot past arity": "query q timeout 1s\nopgraph g disseminate local {\n s = Scan(table='t')\n a = Result()\n a.1 <- s\n}\n",
		"slot fed twice":  "query q timeout 1s\nopgraph g disseminate local {\n s = Scan(table='t')\n n = NewData(table='t')\n a = Result()\n a <- s\n a <- n\n}\n",
		"fan-out":         "query q timeout 1s\nopgraph g disseminate local {\n s = Scan(table='t')\n a = Result()\n b = Result()\n a <- s\n b <- s\n}\n",
		"edge from sink":  "query q timeout 1s\nopgraph g disseminate local {\n a = Result()\n b = Result()\n b <- a\n}\n",
		"reaches no sink": "query q timeout 1s\nopgraph g disseminate local {\n s = Scan(table='t')\n}\n",
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	q := MustParse(sample)
	got, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != q.ID || got.Timeout != q.Timeout || len(got.Graphs) != len(q.Graphs) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range q.Graphs {
		a, b := q.Graphs[i], got.Graphs[i]
		if a.ID != b.ID || a.Dissem != b.Dissem {
			t.Errorf("graph %d header mismatch", i)
		}
		if len(a.Ops) != len(b.Ops) || len(a.Edges) != len(b.Edges) {
			t.Errorf("graph %d shape mismatch", i)
		}
		for j := range a.Ops {
			if a.Ops[j].ID != b.Ops[j].ID || a.Ops[j].Kind != b.Ops[j].Kind {
				t.Errorf("graph %d op %d mismatch", i, j)
			}
			for k, v := range a.Ops[j].Args {
				if b.Ops[j].Args[k] != v {
					t.Errorf("graph %d op %d arg %q mismatch", i, j, k)
				}
			}
		}
	}
}

func TestEncodeGraphRoundTrip(t *testing.T) {
	q := MustParse(sample)
	g, err := DecodeGraph(EncodeGraph(q.Graphs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != q.Graphs[0].ID || len(g.Ops) != len(q.Graphs[0].Ops) {
		t.Fatalf("graph round trip mismatch")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("garbage should not decode")
	}
}

func TestValidateRejectsDuplicateGraphIDs(t *testing.T) {
	q := &Query{ID: "q", Graphs: []Opgraph{
		{ID: "g", Dissem: Dissemination{Mode: DissemLocal}, Ops: []OpSpec{{ID: "a", Kind: "Result"}}},
		{ID: "g", Dissem: Dissemination{Mode: DissemLocal}, Ops: []OpSpec{{ID: "a", Kind: "Result"}}},
	}}
	if err := q.Validate(); err == nil {
		t.Error("duplicate graph ids must fail validation")
	}
}

func TestPropertyArgsSurviveCodec(t *testing.T) {
	f := func(id, k1, v1, v2 string) bool {
		if id == "" || k1 == "" {
			return true
		}
		if strings.ContainsAny(id+k1, "\x00") {
			return true
		}
		g := Opgraph{
			ID:     "g",
			Dissem: Dissemination{Mode: DissemLocal},
			Ops:    []OpSpec{{ID: "a", Kind: "K", Args: map[string]string{k1: v1, k1 + "x": v2}}},
		}
		got, err := DecodeGraph(EncodeGraph(g))
		if err != nil {
			return false
		}
		return got.Ops[0].Args[k1] == v1 && got.Ops[0].Args[k1+"x"] == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
