package qp

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pier/internal/overlay"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// emissionPlans are the plans whose operators hand their parent lone rows
// — TopK's flush (through a shared chain's demux), FetchMatches' get
// callback, and a Bloom join (filter forward, rehash put, the
// join's single-output case). Each row is one batch of one on the edge, so
// each is one result message or one put object; coarsening any of them
// moves these counts.
var emissionPlans = []struct {
	name    string
	rehash  string // namespace whose stored objects count as puts
	queries []string
}{
	{"topk", "", []string{`
query tkA timeout 10s
opgraph g disseminate broadcast {
    src = NewData(table='em.stream')
    top = TopK(k=2, col='v', flushevery='3s')
    out = Result()
    top <- src
    out <- top
}`, `
query tkB timeout 10s
opgraph g disseminate broadcast {
    src = NewData(table='em.stream')
    top = TopK(k=2, col='v', flushevery='3s')
    out = Result()
    top <- src
    out <- top
}`}},
	{"fetchmatches", "", []string{`
query fm timeout 10s
opgraph g disseminate broadcast {
    scan = Scan(table='em.orders')
    fm   = FetchMatches(ns='em.users', key='uid', out='ou')
    out  = Result()
    fm <- scan
    out <- fm
}`}},
	{"bloomjoin", "em.x", []string{`
query bj timeout 25s
opgraph gbuild disseminate broadcast {
    scan = Scan(table='em.s')
    bb   = BloomBuild(ns='em.bf', key='id', expected=64, flushevery='4s')
    sput = Put(ns='em.x', key='id')
    tee  = Tee()
    tee <- scan
    bb <- tee
    sput <- tee
}
opgraph gprobe disseminate broadcast {
    scan = Scan(table='em.r')
    bf   = BloomFilter(ns='em.bf', key='id', fetchdelay='8s')
    put  = Put(ns='em.x', key='id')
    bf <- scan
    put <- bf
}
opgraph gjoin disseminate broadcast {
    rin = Scan(table='em.x', only='r')
    sin = Scan(table='em.x', only='s')
    j   = Join(leftkey='id', rightkey='id', out='rs')
    out = Result()
    j.left <- rin
    j.right <- sin
    out <- j
}`}},
}

// emissionCounts is what one plan put on the wire and delivered.
type emissionCounts struct {
	Msgs, Bytes, Puts, PutBytes int
	Rows                        uint64
}

// runEmission runs every plan on one 6-node ring and returns its result
// messages and bytes, the objects and bytes it rehashed, and the digest of
// the rows each query received in arrival order.
func runEmission(t *testing.T, workers int) map[string]emissionCounts {
	t.Helper()
	env, nodes, taps := tapCluster(t, 53, 6, workers)
	local := func(table string, i int64, tp *tuple.Tuple) {
		nodes[int(i)%len(nodes)].PublishLocal(table, tp, time.Hour)
	}
	for i := int64(0); i < 5; i++ {
		local("em.s", i, tuple.New("s").Set("id", tuple.Int(i)).Set("sv", tuple.Int(1000+i)))
		nodes[int(i)%len(nodes)].Publish("em.users", []string{"id"},
			tuple.New("users").Set("id", tuple.Int(i)).Set("name", tuple.String(fmt.Sprint("user-", i))), time.Hour, nil)
	}
	for i := int64(0); i < 40; i++ {
		id := i + 1000 // no partner in s
		if i < 10 {
			id = i % 5
		}
		local("em.r", i, tuple.New("r").Set("id", tuple.Int(id)).Set("rv", tuple.Int(i)))
	}
	for _, uid := range []int64{1, 3, 3, 9} { // 9 has no match
		nodes[4].PublishLocal("em.orders", tuple.New("orders").Set("uid", tuple.Int(uid)), time.Hour)
	}
	env.Run(5 * time.Second)

	got := make(map[string]emissionCounts)
	from := make([]int, len(taps))
	for _, plan := range emissionPlans {
		sets := make(map[string]*ResultSet)
		for _, src := range plan.queries {
			q := ufl.MustParse(src)
			rs, err := nodes[0].SubmitCollect(q, "c")
			if err != nil {
				t.Fatal(err)
			}
			sets[q.ID] = rs
		}
		env.Run(time.Second)
		for i := int64(0); i < 12; i++ { // arrives on the bus: only the NewData plan sees it
			local("em.stream", i, tuple.New("stream").Set("v", tuple.Int(i)))
		}
		env.Run(19 * time.Second)
		var c emissionCounts
		if plan.rehash != "" { // mid-run, while the rehashed soft state is alive
			for _, n := range nodes {
				n.DHT().LocalScan(plan.rehash, func(o overlay.Object) bool {
					c.Puts++
					c.PutBytes += len(o.Data)
					return true
				})
			}
		}
		env.Run(20 * time.Second)
		rows := make(map[string][]string)
		for id, rs := range sets {
			if !rs.Done() {
				t.Fatalf("%s: query %s did not complete", plan.name, id)
			}
			rows[id] = rowStrings(rs)
		}
		c.Msgs, c.Bytes = sentSince(taps, from)
		c.Rows = rowDigest(rows)
		got[plan.name] = c
	}
	for i, n := range nodes {
		if st := n.Stats(); st.MalformedDrops != 0 || st.PendingSends != 0 || st.LiveGraphs != 0 {
			t.Errorf("node %d: %+v", i, st)
		}
	}
	return got
}

// emissionAtParent is runEmission's outcome at f0d1299, the commit before
// the row edge went: every lone row was one Push there. The byte fields
// are those counts with values in natural width, where an int below 64 in
// magnitude saves 7 of its 8 bytes, one below 8192 saves 6, and a short
// string's length saves 3 of 4: topk's 10 rows carry one small int
// (530-10*7), fetchmatches' 3 rows two small ints and a name (282-3*17),
// bloomjoin's 8 rows three small ints and an sv near 1000 (744-8*27), and
// its 5 s and 10 r puts save 13 and 14 each (555-5*13-10*14).
var emissionAtParent = map[string]emissionCounts{
	"topk":         {Msgs: 10, Bytes: 460, Rows: 8571167773552642522},
	"fetchmatches": {Msgs: 3, Bytes: 231, Rows: 5173770603659912482},
	"bloomjoin":    {Msgs: 8, Bytes: 528, Puts: 15, PutBytes: 350, Rows: 1828737987605290435},
}

// TestEmissionBoundariesUnchanged: with PushBatch the only edge, every
// operator that emitted a lone row still emits it alone, at the same point
// in the same order — same result messages, same bytes, same rehashed
// objects, same rows — under both schedulers.
func TestEmissionBoundariesUnchanged(t *testing.T) {
	seq := runEmission(t, 0)
	if !reflect.DeepEqual(seq, emissionAtParent) {
		t.Errorf("emission moved:\n got %+v\nwant %+v", seq, emissionAtParent)
	}
	if par := runEmission(t, 8); !reflect.DeepEqual(seq, par) {
		t.Errorf("workers=0 vs workers=8 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}
