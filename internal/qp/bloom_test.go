package qp

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/overlay"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// TestBloomJoinReducesRehashWithoutLosingResults runs the full Bloom
// join rewrite: relation S's keys build filters; relation R is filtered
// before rehash; the join output must equal the plain join while the
// rehash ships far fewer R tuples.
func TestBloomJoinReducesRehashWithoutLosingResults(t *testing.T) {
	env, nodes := cluster(t, 71, 8)
	// S: 5 keys. R: 100 tuples, only 10 with matching keys.
	for i := int64(0); i < 5; i++ {
		nodes[int(i)%len(nodes)].PublishLocal("s", tuple.New("s").
			Set("id", tuple.Int(i)).Set("sv", tuple.Int(1000+i)), time.Hour)
	}
	for i := int64(0); i < 100; i++ {
		id := i + 1000 // no match
		if i < 10 {
			id = i % 5 // matches S
		}
		nodes[int(i)%len(nodes)].PublishLocal("r", tuple.New("r").
			Set("id", tuple.Int(id)).Set("rv", tuple.Int(i)), time.Hour)
	}
	q := ufl.MustParse(`
query bj timeout 25s
opgraph gbuild disseminate broadcast {
    scan = Scan(table='s')
    bb   = BloomBuild(ns='bj.bf', key='id', expected=64)
    sput = Put(ns='bj.x', key='id')
    tee  = Tee()
    tee <- scan
    bb <- tee
    sput <- tee
}
opgraph gprobe disseminate broadcast {
    scan = Scan(table='r')
    bf   = BloomFilter(ns='bj.bf', key='id', fetchdelay='8s')
    put  = Put(ns='bj.x', key='id')
    bf <- scan
    put <- bf
}
opgraph gjoin disseminate broadcast {
    rin = Scan(table='bj.x', only='r')
    sin = Scan(table='bj.x', only='s')
    j   = Join(leftkey='id', rightkey='id', out='rs')
    out = Result()
    j.left <- rin
    j.right <- sin
    out <- j
}
`)
	// BloomBuild publishes at flush; give the build graph an early flush
	// so the probe phase can fetch at 8s.
	q.Graphs[0].Ops[1].Args["flushevery"] = "4s"
	var results []*tuple.Tuple
	done := false
	if err := nodes[0].Submit(q, "bloom",
		func(tp *tuple.Tuple) { results = append(results, tp) },
		func() { done = true }); err != nil {
		t.Fatal(err)
	}
	// Count rehashed R tuples mid-run, while their soft state is alive.
	env.Run(20 * time.Second)
	rehashedR := 0
	for _, n := range nodes {
		n.DHT().LocalScan("bj.x", func(o overlay.Object) bool {
			if tp, err := tuple.Decode(o.Data); err == nil && tp.Table() == "r" {
				rehashedR++
			}
			return true
		})
	}
	env.Run(20 * time.Second)
	if !done {
		t.Fatal("query did not complete")
	}
	if len(results) != 10 {
		t.Fatalf("bloom join produced %d rows, want 10", len(results))
	}
	// The filter must have suppressed most of R: far fewer than 100 R
	// tuples should have been rehashed into the rendezvous namespace.
	if rehashedR == 0 || rehashedR > 30 {
		t.Errorf("rehashed %d R tuples; Bloom filter should cut 100 down to ~10", rehashedR)
	}
}

func TestBloomFilterSuppressionCounts(t *testing.T) {
	// White-box: drive the operator directly to verify suppression
	// accounting and fail-open behavior.
	env, nodes := cluster(t, 72, 4)
	for i := int64(0); i < 50; i++ {
		nodes[int(i)%4].PublishLocal("rr", tuple.New("rr").Set("id", tuple.Int(i)), time.Hour)
	}
	// Only publish filters for ids 0..4 from one synthetic builder.
	q := ufl.MustParse(`
query bf timeout 20s
opgraph gb disseminate local {
    scan = Scan(table='seed')
    bb   = BloomBuild(ns='bf.f', key='id', expected=16, flushevery='3s')
    bb <- scan
}
opgraph gp disseminate broadcast {
    scan = Scan(table='rr')
    bf   = BloomFilter(ns='bf.f', key='id', fetchdelay='7s')
    out  = Result()
    bf <- scan
    out <- bf
}
`)
	for i := int64(0); i < 5; i++ {
		nodes[0].PublishLocal("seed", tuple.New("seed").Set("id", tuple.Int(i)), time.Hour)
	}
	results := runQuery(t, env, nodes, 0, q)
	// Exactly ids 0..4 should pass (false positives possible but rare at
	// this size; allow a small margin).
	if len(results) < 5 || len(results) > 8 {
		t.Fatalf("bloom filter passed %d of 50 tuples, want ~5", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		v, _ := r.Get("id")
		seen[v.String()] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[fmt.Sprint(i)] {
			t.Errorf("member id %d was suppressed (false negative!)", i)
		}
	}
}

// TestBloomFilterCountsMalformedFilter: a hostile object stored under the
// filter name is counted, once, and skipped; with no filter left to merge
// the operator still fails open and every row passes.
func TestBloomFilterCountsMalformedFilter(t *testing.T) {
	env, nodes := cluster(t, 73, 4)
	for i := int64(0); i < 10; i++ {
		nodes[0].PublishLocal("rr", tuple.New("rr").Set("id", tuple.Int(i)), time.Hour)
	}
	nodes[1].DHT().Put("bad.f", "filter", "hostile", []byte{0xff, 0x01}, time.Hour, nil)
	env.Run(5 * time.Second)
	before := malformedDrops(nodes)
	results := runQuery(t, env, nodes, 0, ufl.MustParse(`
query bfbad timeout 10s
opgraph gp disseminate local {
    scan = Scan(table='rr')
    bf   = BloomFilter(ns='bad.f', key='id', fetchdelay='3s')
    out  = Result()
    bf <- scan
    out <- bf
}
`))
	if got := malformedDrops(nodes) - before; len(results) != 10 || got != 1 {
		t.Fatalf("rows=%d MalformedDrops +%d, want all 10 rows and exactly 1 drop", len(results), got)
	}
}
