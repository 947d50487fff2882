package qp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pier/internal/exec"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Tests for held arrivals (bus.go): a share with two or more window-gated
// attachments holds each arrival once and releases the held arrivals as
// one batch when a window closes. All run on a singleton ring, whose
// proxy delivers synchronously, so a second query's results cannot move
// the first's.

// windowPlan is NewData → Select(pred) → GroupBy(src) → Result over
// table, flushed every flush (none: at the deadline only).
func windowPlan(id, table, pred, flush string, timeout time.Duration) *ufl.Query {
	fe := ""
	if flush != "" {
		fe = fmt.Sprintf(", flushevery='%s'", flush)
	}
	return ufl.MustParse(fmt.Sprintf(`
query %s timeout %s
opgraph g disseminate local {
    src = NewData(table='%s')
    sel = Select(pred='%s')
    agg = GroupBy(keys='src', aggs='count(*) as cnt; sum(severity) as sev; max(severity) as hi; max(dstport) as mx'%s)
    out = Result()
    sel <- src
    agg <- sel
    out <- agg
}
`, id, timeout, table, pred, fe))
}

// heldShare returns the bus share reading all of table.
func heldShare(n *Node, table string) *busShare { return n.bus.shares[busKey{table: table}] }

// gatedFlags lists the gated flag of every live attachment reading table,
// in attachment order.
func gatedFlags(n *Node, table string) []bool {
	var flags []bool
	if sh := heldShare(n, table); sh != nil {
		sh.targets.Each(func(tg *busTarget) { flags = append(flags, tg.gated) })
	}
	return flags
}

// heldRow draws one arrival row: src or dstport may be missing, and
// severity mixes int, float and string.
func heldRow(rng *rand.Rand, table string) *tuple.Tuple {
	t := tuple.New(table)
	if rng.Intn(12) > 0 {
		t.Set("src", tuple.String(fmt.Sprintf("s%d", rng.Intn(4))))
	}
	if rng.Intn(8) > 0 {
		t.Set("dstport", tuple.Int(rng.Int63n(100)))
	}
	t.Set("severity", heldSeverity(rng))
	return t
}

func heldSeverity(rng *rand.Rand) tuple.Value {
	switch rng.Intn(6) {
	case 0:
		return tuple.Float(float64(rng.Intn(40)) / 4)
	case 1:
		return tuple.String("high")
	default:
		return tuple.Int(rng.Int63n(20) - 2)
	}
}

// heldFrames draws the payloads of one publish: a legacy single tuple, a
// multi-row 'C' frame (uniform columns, mixed severity kinds), two
// legacy tuples stored back to back as separate objects (heterogeneous
// rows arriving together), or undecodable bytes.
func heldFrames(rng *rand.Rand, table string) [][]byte {
	switch r := rng.Intn(20); {
	case r < 12:
		return [][]byte{heldRow(rng, table).Encode()}
	case r < 16:
		cb := tuple.NewColumnarBatch(table, []string{"src", "dstport", "severity"}, 4)
		for i, k := 0, 2+rng.Intn(4); i < k; i++ {
			cb.AppendRow([]tuple.Value{tuple.String(fmt.Sprintf("s%d", rng.Intn(4))), tuple.Int(rng.Int63n(100)), heldSeverity(rng)})
		}
		return [][]byte{cb.EncodeFrame()}
	case r < 19:
		return [][]byte{heldRow(rng, table).Encode(), heldRow(rng, table).Encode()}
	default:
		return [][]byte{{0xff, 0x02, 0x01}}
	}
}

// heldRun is what query a saw in one run of the differential.
type heldRun struct {
	rows               []string
	selDrops, aggDrops uint64
	feeds, pushes      uint64
	// runs is the number of schema runs in the published rows, in
	// arrival order.
	runs uint64
}

// runHeldDifferential runs query a over seeded arrivals, alone or beside
// a distinct-predicate window query b and an ungated streaming query, and
// returns a's delivered rows in order and its operators' discard counts.
func runHeldDifferential(t *testing.T, seed int64, withOthers bool) heldRun {
	t.Helper()
	env, n := soloNode(t, 300+seed)
	var out heldRun
	a := windowPlan("qa", "ev", "dstport <= 60 AND severity >= 0", "2s", 11*time.Second)
	if err := n.Submit(a, "", func(r *tuple.Tuple) { out.rows = append(out.rows, r.String()) }, nil); err != nil {
		t.Fatal(err)
	}
	if withOthers {
		submitRows(t, n, windowPlan("qb", "ev", "dstport <= 40", "2s", 11*time.Second))
		submitRows(t, n, ufl.MustParse(`
query qc timeout 11s
opgraph g disseminate local {
    src = NewData(table='ev')
    sel = Select(pred='severity >= 5')
    out = Result()
    sel <- src
    out <- sel
}
`))
	}
	env.Run(100 * time.Millisecond)
	want := []bool{true}
	if withOthers {
		want = []bool{true, true, false}
	}
	if got := gatedFlags(n, "ev"); !reflect.DeepEqual(got, want) {
		t.Fatalf("gated attachments %v, want %v", got, want)
	}
	// a is the first attachment; its chain's root is the GroupBy.
	var agg *exec.GroupBy
	heldShare(n, "ev").targets.Each(func(tg *busTarget) {
		if agg == nil {
			agg = tg.c.roots[0].(*exec.GroupBy)
		}
	})
	sel := agg.Child().(*exec.Select)

	rng := rand.New(rand.NewSource(seed))
	before := n.Stats()
	published := map[time.Duration][][]byte{}
	for i := 0; i < 300; i++ {
		at := time.Duration(rng.Int63n(int64(10 * time.Second)))
		key := fmt.Sprintf("p%d", rng.Intn(5)) // several publishers
		suffix := fmt.Sprintf("%08x", rng.Uint32())
		frames := heldFrames(rng, "ev")
		published[at] = append(published[at], frames...)
		n.Runtime().Schedule(at, func() {
			for j, data := range frames {
				n.DHT().PutLocal("ev", key, fmt.Sprint(suffix, j), data, time.Hour)
			}
		})
	}
	env.Run(15 * time.Second)
	after := n.Stats()
	out.selDrops, out.aggDrops = sel.Dropped.Count(), agg.Dropped.Count()
	out.feeds, out.pushes = after.ChainFeeds-before.ChainFeeds, after.ChainPushes-before.ChainPushes
	var last []string
	ats := make([]time.Duration, 0, len(published))
	for at := range published {
		ats = append(ats, at)
	}
	slices.Sort(ats)
	for _, at := range ats {
		for _, data := range published[at] {
			if b, err := tuple.DecodeFrame(data); err == nil && (out.runs == 0 || !slices.Equal(b.Names(), last)) {
				out.runs++
				last = b.Names()
			}
		}
	}
	assertNoLeaks(t, n)
	return out
}

// TestHeldArrivalsEqualImmediate: a window query fed each arrival at once
// (alone on its share) and the same query beside a second window query
// (so the share holds) deliver the same row sequence and discard the same
// rows.
func TestHeldArrivalsEqualImmediate(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			alone := runHeldDifferential(t, seed, false)
			beside := runHeldDifferential(t, seed, true)
			if len(alone.rows) < 10 {
				t.Fatalf("only %d rows delivered: the mix exercised nothing", len(alone.rows))
			}
			if !reflect.DeepEqual(alone.rows, beside.rows) {
				t.Errorf("rows differ\n alone:  %v\n beside: %v", alone.rows, beside.rows)
			}
			if alone.selDrops != beside.selDrops || alone.aggDrops != beside.aggDrops {
				t.Errorf("discards differ: Select %d vs %d, GroupBy %d vs %d",
					alone.selDrops, beside.selDrops, alone.aggDrops, beside.aggDrops)
			}
			if alone.selDrops == 0 || alone.aggDrops == 0 {
				t.Errorf("Select discarded %d and GroupBy %d rows: the mix must exercise both", alone.selDrops, alone.aggDrops)
			}
			// Alone, every arrival is its own push. Beside, all three
			// queries are fed every arrival, but only the streaming query
			// per arrival: a and b take one push per schema run of a
			// release, and the releases — at most one per 2 s window and
			// one at the deadline — cut the published runs at most 7
			// more times.
			if alone.pushes != alone.feeds {
				t.Errorf("alone: %d pushes for %d feeds, want equal", alone.pushes, alone.feeds)
			}
			if most := alone.pushes + 2*(alone.runs+7); beside.feeds != 3*alone.feeds || beside.pushes > most {
				t.Errorf("beside: %d feeds and %d pushes over %d runs, want %d and at most %d",
					beside.feeds, beside.pushes, alone.runs, 3*alone.feeds, most)
			}
		})
	}
}

// TestWindowGatedRule pins which access methods are window-gated: those
// whose only path up reaches a GroupBy through Select/Project alone.
func TestWindowGatedRule(t *testing.T) {
	cases := []struct {
		name, body string
		want       []bool
	}{
		{"scan-select-groupby", `
    src = Scan(table='%[1]s')
    sel = Select(pred='v >= 0')
    agg = GroupBy(keys='k', aggs='count(*) as cnt')
    out = Result()
    sel <- src
    agg <- sel
    out <- agg`, []bool{true}},
		{"cached newdata-groupby", `
    src = NewData(table='%[1]s')
    agg = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='1s')
    out = Result()
    agg <- src
    out <- agg`, []bool{true}},
		{"select-project-groupby-topk", `
    src = NewData(table='%[1]s')
    sel = Select(pred='v >= 0')
    prj = Project(cols='k, v')
    agg = GroupBy(keys='k', aggs='count(*) as cnt')
    top = TopK(k='2', col='cnt')
    out = Result()
    sel <- src
    prj <- sel
    agg <- prj
    top <- agg
    out <- top`, []bool{true}},
		{"scan-select-result", `
    src = Scan(table='%[1]s')
    sel = Select(pred='v >= 0')
    out = Result()
    sel <- src
    out <- sel`, []bool{false}},
		{"join", `
    l = Scan(table='%[1]s')
    r = Scan(table='%[1]s')
    j = Join(leftkey='k', rightkey='k')
    agg = GroupBy(keys='k', aggs='count(*) as cnt')
    out = Result()
    j.left <- l
    j.right <- r
    agg <- j
    out <- agg`, []bool{false, false}},
		{"limit", `
    src = Scan(table='%[1]s')
    lim = Limit(n=5)
    agg = GroupBy(keys='k', aggs='count(*) as cnt')
    out = Result()
    lim <- src
    agg <- lim
    out <- agg`, []bool{false}},
		{"tee", `
    src = Scan(table='%[1]s')
    tee = Tee()
    agg = GroupBy(keys='k', aggs='count(*) as cnt')
    ra = Result()
    rb = Result()
    tee <- src
    agg <- tee
    ra <- agg
    rb <- tee`, []bool{false}},
		{"hieragg", `
    src = Scan(table='%[1]s')
    agg = HierAgg(keys='k', aggs='count(*) as cnt')
    out = Result()
    agg <- src
    out <- agg`, []bool{false}},
	}
	env, n := soloNode(t, 330)
	for i, tc := range cases {
		table := fmt.Sprintf("wg%d", i)
		q := ufl.MustParse(fmt.Sprintf("query wg%d timeout 2s\nopgraph g disseminate local {%s\n}\n", i, fmt.Sprintf(tc.body, table)))
		submitRows(t, n, q)
		env.Run(100 * time.Millisecond)
		if got := gatedFlags(n, table); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: gated %v, want %v", tc.name, got, tc.want)
		}
	}
	if len(n.subtrees) != 2 {
		t.Errorf("%d signature-cached chains, want 2 (the two NewData-fed shapes)", len(n.subtrees))
	}
	env.Run(10 * time.Second)
	assertNoLeaks(t, n)
}

// heldPublish publishes count rows of table at n, one arrival each.
func heldPublish(n *Node, table string, from, count int) {
	for i := from; i < from+count; i++ {
		n.PublishLocal(table, tuple.New(table).Set("src", tuple.String(fmt.Sprintf("s%d", i%3))).
			Set("dstport", tuple.Int(int64(i))).Set("severity", tuple.Int(1)), time.Hour)
	}
}

// countOf sums cnt over rows.
func countOf(rows []*tuple.Tuple) int64 {
	var sum int64
	for _, r := range rows {
		v, _ := r.Get("cnt")
		c, _ := v.AsInt()
		sum += c
	}
	return sum
}

// TestHeldBoundaries pins the releases other than a flush: an attachment
// joining mid-window, a detach down to one gated attachment, and the cap;
// and that a Scan's catch-up rows come before the arrivals held for it.
func TestHeldBoundaries(t *testing.T) {
	t.Run("attach mid-window sees only later arrivals", func(t *testing.T) {
		env, n := soloNode(t, 341)
		a := collect(t, n, windowPlan("qa", "ev", "true", "", 10*time.Second))
		b := collect(t, n, windowPlan("qb", "ev", "dstport >= 0", "", 10*time.Second))
		env.Run(100 * time.Millisecond)
		heldPublish(n, "ev", 0, 5)
		if got := n.Stats().HeldRows; got != 5 {
			t.Fatalf("%d rows held before the attach, want 5", got)
		}
		c := collect(t, n, windowPlan("qc", "ev", "dstport >= 1", "", 10*time.Second))
		env.Run(100 * time.Millisecond)
		if got := n.Stats().HeldRows; got != 0 {
			t.Fatalf("%d rows held after a gated attach, want 0 (released to a and b)", got)
		}
		heldPublish(n, "ev", 5, 3)
		env.Run(15 * time.Second)
		if got := []int64{countOf(a.Rows()), countOf(b.Rows()), countOf(c.Rows())}; !reflect.DeepEqual(got, []int64{8, 8, 3}) {
			t.Errorf("counted %v, want [8 8 3]", got)
		}
		assertNoLeaks(t, n)
	})

	t.Run("detach to one gated attachment returns to immediate dispatch", func(t *testing.T) {
		env, n := soloNode(t, 342)
		a := collect(t, n, windowPlan("qa", "ev", "true", "", 10*time.Second))
		collect(t, n, windowPlan("qb", "ev", "dstport >= 0", "", 10*time.Second))
		env.Run(100 * time.Millisecond)
		heldPublish(n, "ev", 0, 4)
		// Close b's graph without its flush: only the detach can release.
		for _, lg := range n.running["qb"].graphs {
			lg.close()
		}
		st := n.Stats()
		if st.HeldRows != 0 || !reflect.DeepEqual(gatedFlags(n, "ev"), []bool{true}) {
			t.Fatalf("after the detach: %d rows held, attachments %v; want 0 and [true]", st.HeldRows, gatedFlags(n, "ev"))
		}
		heldPublish(n, "ev", 4, 2)
		if got := n.Stats().ChainPushes - st.ChainPushes; got != 2 {
			t.Errorf("two arrivals on a share with one gated attachment made %d pushes, want 2", got)
		}
		env.Run(15 * time.Second)
		if got := countOf(a.Rows()); got != 6 {
			t.Errorf("the survivor counted %d rows, want 6", got)
		}
		assertNoLeaks(t, n)
	})

	t.Run("catch-up before held arrivals", func(t *testing.T) {
		run := func(pair bool) []string {
			env, n := soloNode(t, 343)
			for i := 0; i < 3; i++ {
				n.PublishLocal("ev", tuple.New("ev").Set("src", tuple.String(fmt.Sprintf("stored%d", i))).Set("v", tuple.Int(1)), time.Hour)
			}
			scan := func(id, pred string) *ResultSet {
				return collect(t, n, ufl.MustParse(fmt.Sprintf(`
query %s timeout 6s
opgraph g disseminate local {
    src = Scan(table='ev')
    sel = Select(pred='%s')
    agg = GroupBy(keys='src', aggs='count(*) as cnt', flushevery='2s')
    out = Result()
    sel <- src
    agg <- sel
    out <- agg
}
`, id, pred)))
			}
			a := scan("qa", "v >= 0")
			if pair {
				scan("qb", "v >= -1")
			}
			env.Run(100 * time.Millisecond)
			for i := 0; i < 3; i++ {
				n.PublishLocal("ev", tuple.New("ev").Set("src", tuple.String(fmt.Sprintf("new%d", i))).Set("v", tuple.Int(1)), time.Hour)
			}
			if pair && n.Stats().HeldRows != 3 {
				t.Fatalf("%d rows held beside a second scan, want 3", n.Stats().HeldRows)
			}
			env.Run(10 * time.Second)
			assertNoLeaks(t, n)
			var rows []string
			for _, r := range a.Rows() {
				rows = append(rows, r.String())
			}
			return rows
		}
		alone, pair := run(false), run(true)
		ok := len(alone) == 6
		for i := 0; ok && i < 6; i++ {
			ok = strings.HasPrefix(alone[i], "groupby(src=stored") == (i < 3)
		}
		if !ok || !reflect.DeepEqual(alone, pair) {
			t.Errorf("rows\n alone: %v\n pair:  %v\nwant the three stored groups first, then the three arrivals, equal", alone, pair)
		}
	})

	t.Run("a deadline-only window holds at most maxHeldRows", func(t *testing.T) {
		env, n := soloNode(t, 344)
		a := collect(t, n, windowPlan("qa", "ev", "true", "", 30*time.Second))
		b := collect(t, n, windowPlan("qb", "ev", "dstport >= 0", "", 30*time.Second))
		env.Run(100 * time.Millisecond)
		peak := 0
		for i := 0; i < 3000; i++ {
			heldPublish(n, "ev", i, 1)
			if h := n.Stats().HeldRows; h > peak {
				peak = h
			}
		}
		if peak >= maxHeldRows || peak < maxHeldRows-1 {
			t.Errorf("held at most %d rows, want %d", peak, maxHeldRows-1)
		}
		env.Run(40 * time.Second)
		if ca, cb := countOf(a.Rows()), countOf(b.Rows()); ca != 3000 || cb != 3000 {
			t.Errorf("counted %d and %d rows, want 3000 each", ca, cb)
		}
		assertNoLeaks(t, n)
	})
}

// ungatedTap is an ungated attachment wired straight onto the bus, with
// a sink recording the dstport of every row it is fed.
type ungatedTap struct {
	c      *chain
	got    []int64
	cancel func()
}

func attachTap(n *Node, table string, onRow func(*ungatedTap)) *ungatedTap {
	tp := &ungatedTap{c: &chain{n: n}}
	in := exec.NewInput()
	in.SetParent(exec.SinkFunc(func(_ exec.Tag, r *tuple.Tuple) {
		v, _ := r.Get("dstport")
		p, _ := v.AsInt()
		tp.got = append(tp.got, p)
		if onRow != nil {
			onRow(tp)
		}
	}))
	in.Open(1)
	tp.cancel = n.bus.attach(table, "", "", tp.c, 1, in, false)
	return tp
}

// TestUngatedJoinAndLeaveWhileHolding: two gated attachments keep a share
// holding while ungated ones join and leave mid-window — one detaching
// itself from inside its own dispatch, one whose chain closed before it
// detached. The share walks its attachments only while one ungated
// attachment is live; each ungated attachment is fed each arrival once,
// at once; the gated ones are fed every arrival at release; ChainFeeds
// counts exactly those deliveries.
func TestUngatedJoinAndLeaveWhileHolding(t *testing.T) {
	env, n := soloNode(t, 345)
	a := collect(t, n, windowPlan("qa", "ev", "true", "", 10*time.Second))
	b := collect(t, n, windowPlan("qb", "ev", "dstport >= 0", "", 10*time.Second))
	env.Run(100 * time.Millisecond)
	sh := heldShare(n, "ev")
	before := n.Stats().ChainFeeds

	var taps []*ungatedTap
	sent := 0
	// publish sends k arrivals, checks every tap was fed exactly the
	// arrivals it was live and open for, and the ungated count against
	// the live attachments.
	publish := func(k int, want ...[]int64) {
		t.Helper()
		heldPublish(n, "ev", sent, k)
		sent += k
		var fed uint64
		for i, tp := range taps {
			if !reflect.DeepEqual(tp.got, want[i]) {
				t.Fatalf("after %d arrivals tap %d was fed %v, want %v", sent, i, tp.got, want[i])
			}
			fed += uint64(len(tp.got))
		}
		live := 0
		sh.targets.Each(func(tg *busTarget) {
			if !tg.gated {
				live++
			}
		})
		st := n.Stats()
		if sh.gated != 2 || sh.ungated != live || st.HeldRows != sent || st.ChainFeeds-before != fed {
			t.Fatalf("after %d arrivals: gated %d, ungated %d (live %d), %d rows held, %d feeds; want 2, %d, %d, %d",
				sent, sh.gated, sh.ungated, live, st.HeldRows, st.ChainFeeds-before, live, sent, fed)
		}
	}
	publish(2)
	taps = append(taps, attachTap(n, "ev", nil))
	publish(2, []int64{2, 3})
	// The second tap detaches from inside its second dispatch.
	taps = append(taps, attachTap(n, "ev", func(tp *ungatedTap) {
		if len(tp.got) == 2 {
			tp.cancel()
		}
	}))
	publish(3, []int64{2, 3, 4, 5, 6}, []int64{4, 5})
	// The third tap's chain closes while it is still attached.
	taps = append(taps, attachTap(n, "ev", nil))
	publish(1, []int64{2, 3, 4, 5, 6, 7}, []int64{4, 5}, []int64{7})
	taps[2].c.closed = true
	publish(2, []int64{2, 3, 4, 5, 6, 7, 8, 9}, []int64{4, 5}, []int64{7})
	taps[0].cancel()
	publish(1, []int64{2, 3, 4, 5, 6, 7, 8, 9}, []int64{4, 5}, []int64{7})
	taps[2].cancel()
	if sh.ungated != 0 {
		t.Fatalf("%d ungated attachments counted after every tap left", sh.ungated)
	}
	publish(2, []int64{2, 3, 4, 5, 6, 7, 8, 9}, []int64{4, 5}, []int64{7})

	fed := n.Stats().ChainFeeds - before
	env.Run(15 * time.Second)
	if got := n.Stats().ChainFeeds - before - fed; got != uint64(2*sent) {
		t.Errorf("the release fed %d arrivals, want %d: every held arrival to both gated chains", got, 2*sent)
	}
	if ca, cb := countOf(a.Rows()), countOf(b.Rows()); ca != int64(sent) || cb != int64(sent) {
		t.Errorf("gated chains counted %d and %d rows, want %d each", ca, cb, sent)
	}
	assertNoLeaks(t, n)
}

// collect submits plan at n and returns its result set.
func collect(t *testing.T, n *Node, plan *ufl.Query) *ResultSet {
	t.Helper()
	rs, err := n.SubmitCollect(plan, "")
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestChainPushesPerWindow: K distinct window chains on one node, N
// arrivals over W flush periods. Every chain is fed every arrival
// (ChainFeeds = K·N, as under immediate dispatch), in one push per chain
// per window (ChainPushes = K·W, not K·N).
func TestChainPushesPerWindow(t *testing.T) {
	const k, w, perWindow = 50, 4, 30
	env, n := soloNode(t, 350)
	for i := 0; i < k; i++ {
		collect(t, n, windowPlan(fmt.Sprintf("q%d", i), "ev", fmt.Sprintf("dstport >= -%d", i), "1s", 10*time.Second))
	}
	env.Run(100 * time.Millisecond)
	if got := len(n.subtrees); got != k {
		t.Fatalf("%d chains, want %d distinct", got, k)
	}
	before := n.Stats()
	for win := 0; win < w; win++ {
		heldPublish(n, "ev", win*perWindow, perWindow)
		env.Run(time.Second)
	}
	env.Run(15 * time.Second)
	after := n.Stats()
	if got, want := after.ChainFeeds-before.ChainFeeds, uint64(k*w*perWindow); got != want {
		t.Errorf("ChainFeeds moved by %d, want K·N = %d", got, want)
	}
	if got, want := after.ChainPushes-before.ChainPushes, uint64(k*w); got != want {
		t.Errorf("ChainPushes moved by %d, want K·W = %d", got, want)
	}
	assertNoLeaks(t, n)
}
