package qp

import (
	"reflect"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
)

// collectCluster builds a small ring, optionally on the sharded
// scheduler, and loads a tiny firewall table.
func collectCluster(t *testing.T, seed int64, workers int) (*sim.Env, []*Node) {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: seed})
	if workers > 0 {
		env.SetWorkers(workers)
	}
	sims := env.SpawnN("node", 8)
	nodes := make([]*Node, len(sims))
	for i, s := range sims {
		nodes[i] = NewNode(s, Config{})
		if err := nodes[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(nodes); i++ {
		nodes[i].Join(nodes[0].Addr(), nil)
		env.Run(2 * time.Second)
	}
	env.Run(time.Duration(len(nodes))*2*time.Second + 15*time.Second)
	for i, src := range []string{"a", "a", "a", "b", "b", "c"} {
		nodes[i%len(nodes)].PublishLocal("fw", tuple.New("fw").
			Set("src", tuple.String(src)), time.Hour)
	}
	return env, nodes
}

func collectTop(t *testing.T, seed int64, workers int) ([][2]string, time.Duration, bool) {
	t.Helper()
	env, nodes := collectCluster(t, seed, workers)
	q, err := sqlfront.Run("collect",
		"SELECT src, COUNT(*) AS cnt FROM fw GROUP BY src ORDER BY cnt DESC LIMIT 3 TIMEOUT 20s",
		sqlfront.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := env.Now()
	rs, err := nodes[0].SubmitCollect(q, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	env.Run(q.Timeout + 10*time.Second)
	var rows [][2]string
	for _, tp := range rs.Rows() {
		src, _ := tp.Get("src")
		cnt, _ := tp.Get("cnt")
		rows = append(rows, [2]string{src.String(), cnt.String()})
	}
	var firstLat time.Duration
	if at, ok := rs.FirstAt(); ok {
		firstLat = at.Sub(start)
	}
	return rows, firstLat, rs.Done()
}

// TestSubmitCollect checks the collector against the callback API on the
// default single scheduler shard: same rows, completion flag set, and a plausible
// first-result timestamp.
func TestSubmitCollect(t *testing.T) {
	rows, firstLat, done := collectTop(t, 310, 0)
	if !done {
		t.Fatal("query did not complete")
	}
	if len(rows) != 3 || rows[0][0] != "a" || rows[0][1] != "3" {
		t.Fatalf("rows = %v, want a/3 first of 3", rows)
	}
	if firstLat <= 0 || firstLat > 25*time.Second {
		t.Errorf("first-result latency = %v, want within (0, 25s]", firstLat)
	}
}

// TestSubmitCollectShardedMatchesSequential is the property the type
// exists for: the drained result set (content, order, first-result
// timing) is bit-identical between one inline scheduler shard and four
// worker shards at the same seed.
func TestSubmitCollectShardedMatchesSequential(t *testing.T) {
	seqRows, seqLat, seqDone := collectTop(t, 311, 0)
	parRows, parLat, parDone := collectTop(t, 311, 4)
	if !seqDone || !parDone {
		t.Fatalf("done: seq=%v par=%v", seqDone, parDone)
	}
	if !reflect.DeepEqual(seqRows, parRows) || seqLat != parLat {
		t.Fatalf("workers=0 vs workers=4 diverged:\nseq: %v @ %v\npar: %v @ %v",
			seqRows, seqLat, parRows, parLat)
	}
	if len(seqRows) == 0 {
		t.Fatal("degenerate run: no rows")
	}
}
