package qp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// fuzzDeadline is the seeds' query deadline: the simulator's clock starts
// at the epoch.
var fuzzDeadline = time.Unix(0, 0).Add(30 * time.Second)

// fuzzPlan is the seeds' query: a shareable and a private broadcast graph.
func fuzzPlan() *ufl.Query {
	return ufl.MustParse(`
query f timeout 30s
opgraph shared disseminate broadcast {
    src = NewData(table='fw')
    sel = Select(pred='sev > 2 AND sev < 9')
    agg = GroupBy(keys='src', aggs='count(*) as cnt; sum(sev) as total', flushevery='1s')
    out = Result()
    sel <- src
    agg <- sel
    out <- agg
}
opgraph private disseminate broadcast {
    scan = Scan(table='fw')
    tee  = Tee()
    agg  = HierAgg(keys='src', aggs='count(*) as cnt', senddelay='200ms')
    bb   = BloomBuild(ns='f.bf', key='src', expected=64)
    out  = Result()
    tee <- scan
    agg <- tee
    bb <- tee
    out <- agg
}
`)
}

// frame builds a query-port message of kind with body.
func frame(kind uint8, body func(w *wire.Writer)) []byte {
	w := wire.NewWriter(256)
	w.U8(kind)
	body(w)
	return w.Bytes()
}

// testWindow is a two-row columnar result window.
func testWindow() *tuple.Batch {
	window := tuple.NewColumnarBatch("r", []string{"k", "v"}, 2)
	window.AppendRow([]tuple.Value{tuple.String("x"), tuple.Int(1)})
	window.AppendRow([]tuple.Value{tuple.String("y"), tuple.Float(2.5)})
	return window
}

// handleMessageSeeds is one valid frame of every query-port message kind.
func handleMessageSeeds() [][]byte {
	plan := fuzzPlan()
	var entries []ufl.BatchEntry
	for _, g := range plan.Graphs {
		entries = append(entries, ufl.BatchEntry{QueryID: "f", Deadline: fuzzDeadline, Proxy: "proxy", Client: "c", Graph: g})
	}
	dissem := encodeDisseminate("f", fuzzDeadline, "proxy", "c", plan.Graphs[1])
	window := testWindow()
	return [][]byte{
		dissem,
		frame(qmDisseminateBatch, func(w *wire.Writer) { w.Bytes32(ufl.EncodeBatch(entries)) }),
		encodeTreeBroadcast(wire.NewWriter(256), 0, "fwd", "exec", dissem),
		frame(qmReject, func(w *wire.Writer) { w.String("f") }),
		frame(qmAdmit, func(w *wire.Writer) { ufl.EncodeAdmitsTo(w, []string{"f", "g"}) }),
		resultMessage("f", tuple.New("r").Set("k", tuple.String("x")).Encode()),
		resultMessage("f", window.EncodeFrame()),
		multiResultMessage(2, []string{"f", "g"}, window.EncodeFrame()),
	}
}

// fuzzNode starts a lone node proxying query f for result, admit and
// reject frames to land on.
func fuzzNode(t *testing.T) (*sim.Env, *Node) {
	env := sim.NewEnv(sim.Options{Seed: 1})
	n := NewNode(env.Spawn("fuzz"), Config{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	q := ufl.MustParse("query f timeout 30s\nopgraph g disseminate local {\n    src = NewData(table='none')\n}\n")
	if err := n.Submit(q, "c", func(*tuple.Tuple) {}, nil); err != nil {
		t.Fatal(err)
	}
	return env, n
}

// TestMalformedQueryMessagesCounted: a query-port datagram of any kind
// that fails to decode is counted once in MalformedDrops, and one that
// decodes is not.
func TestMalformedQueryMessagesCounted(t *testing.T) {
	check := func(name string, data []byte, want uint64) {
		t.Helper()
		env, n := fuzzNode(t)
		before := n.Stats().MalformedDrops
		n.handleMessage(vri.Addr("peer"), data)
		env.Run(2 * time.Second)
		if got := n.Stats().MalformedDrops - before; got != want {
			t.Errorf("%s (kind %d, %d bytes): MalformedDrops moved by %d, want %d", name, data[0], len(data), got, want)
		}
		n.Stop()
	}
	for i, seed := range handleMessageSeeds() {
		check(fmt.Sprintf("seed %d whole", i), seed, 0)
		check(fmt.Sprintf("seed %d cut in half", i), seed[:len(seed)/2], 1)
	}
	check("unknown kind", []byte{0xee, 1, 2, 3}, 1)
}

// FuzzHandleMessage: a PIER node executes opgraphs and accepts results
// sent by strangers, so whatever arrives on the query port must neither
// panic nor make the node allocate out of proportion to the message — a
// count field is not a licence to reserve memory. The seeds are one valid
// frame of every message kind, and truncations of each.
func FuzzHandleMessage(f *testing.F) {
	plan := fuzzPlan()
	window := testWindow()
	for _, seed := range handleMessageSeeds() {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})
	// The id-list form of a result: no ids, a count the bytes cannot carry,
	// cut inside an id, and a good id list over a cut frame.
	multi := multiResultMessage(2, []string{"f", "g"}, window.EncodeFrame())
	f.Add(multiResultMessage(0, nil, window.EncodeFrame()))
	f.Add([]byte{qmResultMulti, 0xff, 0xff})
	f.Add(multi[:8])
	f.Add(multi[:len(multi)-3])
	// Counts and sizes that outrun the bytes carrying them.
	f.Add(frame(qmDisseminateBatch, func(w *wire.Writer) { w.Bytes32([]byte{ufl.BatchCodecVersion, 0xff, 0xff}) }))
	greedy := plan.Graphs[1]
	greedy.Ops = append([]ufl.OpSpec(nil), greedy.Ops...)
	greedy.Ops[3].Args = map[string]string{"ns": "f.bf", "key": "src", "expected": "2000000000"}
	f.Add(encodeDisseminate("f", fuzzDeadline, "proxy", "c", greedy))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, n := fuzzNode(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.handleMessage(vri.Addr("peer"), data)
		env.Run(2 * time.Second) // timers the message armed: wheel ticks, partial shipping, queues
		n.Stop()                 // flush and close whatever it instantiated
		runtime.ReadMemStats(&after)
		// The constant covers what a u16 count can reserve before the
		// decoder sees the data is missing (a columnar frame's names).
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+1024*len(data)); got > bound {
			t.Fatalf("%d-byte message made the node allocate %d bytes (bound %d)", len(data), got, bound)
		}
	})
}
