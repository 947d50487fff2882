package experiments

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"

	"pier/internal/qp"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
)

// ablation is `kind: hier-agg` or `kind: join`, the §3.3.4 ablations:
// it seeds a fixed fixture before the horizon (seedFixture, which also
// fixes the ground truth), submits one plan at the horizon start and
// counts that plan's traffic over the horizon. strategy picks the plan:
// hier-agg's direct or hierarchical, join's symmetric-hash, fetch-matches
// or bloom-rehash (ablationPlans). A scenario holds at most one of each
// kind: its fixture is seeded once.
type ablation struct {
	workloadBase
	kind, strategy string
	// exact is `answers: exact`: the answer must equal the ground truth.
	exact bool

	// Run state: the ground truth, the plan's results and its traffic.
	truth map[string]int64
	rs    *qp.ResultSet
	// root is hier-agg's aggregation point: the owner of the name every
	// partial converges on.
	root vri.Addr
	// msgs and bytes hold the counters at the horizon start, then the
	// difference over the horizon.
	msgs, bytes uint64
}

func (k *ablation) decode(f *fields, spec *ScenarioSpec) error {
	if k.strategy != "" {
		return decodeErr{f.v.line, fmt.Sprintf("at most one %s workload per scenario (its fixture is seeded once)", k.kind)}
	}
	if err := firstErr(f.strField("strategy", &k.strategy), f.done("workload "+k.kind)); err != nil {
		return err
	}
	if plans := ablationPlans[k.kind]; plans[k.strategy] == "" {
		names := make([]string, 0, len(plans))
		for name := range plans {
			names = append(names, name)
		}
		sort.Strings(names)
		return decodeErr{f.v.line, fmt.Sprintf("%s needs strategy %s, got %q", k.kind, strings.Join(names, "|"), k.strategy)}
	}
	return nil
}

func (k *ablation) decodeAssert(f *fields, spec *ScenarioSpec) error {
	var answers string
	err := f.strField("answers", &answers)
	if err == nil && answers != "" && answers != "exact" {
		err = decodeErr{f.v.m["answers"].line, fmt.Sprintf("answers must be exact, got %q", answers)}
	}
	k.exact = answers == "exact"
	return err
}

func (k ablation) start(r *scenarioRun) (workloadKind, bool) {
	k.r, k.truth = r, seedFixture(k.kind, r.nodes)
	return &k, true
}

func (k *ablation) arm() {
	nodes := k.r.nodes
	origin := nodes[0]
	switch k.strategy {
	case "direct":
		k.root, origin = ownerOf(nodes, "agg.partial", "all"), nodes[1]
	case "hierarchical":
		k.root, origin = ownerOf(nodes, "agg.tree", "root"), nodes[1]
	}
	k.msgs, k.bytes = k.traffic()
	var err error
	if k.rs, err = origin.SubmitCollect(ufl.MustParse(ablationPlans[k.kind][k.strategy]), "scenario"); err != nil {
		panic(err)
	}
}

func (k *ablation) horizonEnd() {
	msgs, bytes := k.traffic()
	k.msgs, k.bytes = msgs-k.msgs, bytes-k.bytes
}

// traffic reads what the workload is measured by: in-traffic at the
// aggregation point for hier-agg, the cluster's traffic for join.
func (k *ablation) traffic() (msgs, bytes uint64) {
	if k.kind == "hier-agg" {
		t := k.r.env.Traffic(k.root)
		return t.MsgsIn, t.BytesIn
	}
	_, msgs, bytes = k.r.env.Stats()
	return msgs, bytes
}

func (k *ablation) report(b *strings.Builder, check checkFunc) (submitted, done int) {
	fmt.Fprintf(b, "  %s: strategy=%s rows=%d", k.kind, k.strategy, k.rs.Len())
	if k.kind == "hier-agg" {
		fmt.Fprintf(b, " root-msgs-in=%d root-bytes-in=%d", k.msgs, k.bytes)
	} else {
		fmt.Fprintf(b, " msgs=%d bytes=%d", k.msgs, k.bytes)
	}
	verdict, exact := "wrong", 0
	if maps.Equal(k.answer(), k.truth) {
		verdict, exact = "exact", 1
	}
	fmt.Fprintf(b, " answer=%s\n", verdict)
	if k.exact {
		check(100, "answers exact", exact == 1, fmt.Sprintf("%d/1 answers match the ground truth", exact))
	}
	return 0, 0
}

// answer folds the collected rows into the shape of seedFixture's
// ground truth: the count per group for hier-agg, the count of each
// joined row for join.
func (k *ablation) answer() map[string]int64 {
	got := map[string]int64{}
	for _, t := range k.rs.Rows() {
		if k.kind == "hier-agg" {
			key, _ := t.Get("k")
			c, _ := t.Get("cnt")
			n, _ := c.AsInt()
			got[key.String()] += n
			continue
		}
		cols := make([]string, 0, 4)
		for _, col := range []string{"r.id", "r.rv", "s.id", "s.sv"} {
			v, _ := t.Get(col)
			cols = append(cols, col+"="+v.String())
		}
		got[strings.Join(cols, " ")]++
	}
	return got
}

// Sizes of the §3.3.4 fixtures.
const (
	hierAggRowsPerNode = 20 // vals rows per node, over hierAggGroups keys
	hierAggGroups      = 4
	joinInner          = 40             // |S|: table s, also published as the sindex index
	joinOuter          = 400            // |R|: table r
	joinMatching       = joinOuter / 10 // R rows whose id has a partner in S
)

// seedFixture stores a hier-agg or join workload's fixture on the ring
// and returns its ground truth.
func seedFixture(kind string, nodes []*qp.Node) map[string]int64 {
	truth := map[string]int64{}
	if kind == "hier-agg" {
		for ni, n := range nodes {
			for t := 0; t < hierAggRowsPerNode; t++ {
				g := fmt.Sprintf("g%d", (ni+t)%hierAggGroups)
				truth[g]++
				n.PublishLocal("vals", tuple.New("vals").Set("k", tuple.String(g)), 4*time.Hour)
			}
		}
		return truth
	}
	for i := 0; i < joinInner; i++ {
		n := nodes[i%len(nodes)]
		tp := tuple.New("s").Set("id", tuple.Int(int64(i))).Set("sv", tuple.Int(int64(i)))
		n.PublishLocal("s", tp, 4*time.Hour)
		n.Publish("sindex", []string{"id"}, tp, 4*time.Hour, nil)
	}
	for i := 0; i < joinOuter; i++ {
		id := int64(1_000_000 + i)
		if i < joinMatching {
			id = int64(i % joinInner)
			truth[fmt.Sprintf("r.id=%d r.rv=%d s.id=%d s.sv=%d", id, i, id, id)]++
		}
		nodes[i%len(nodes)].PublishLocal("r", tuple.New("r").
			Set("id", tuple.Int(id)).Set("rv", tuple.Int(int64(i))), 4*time.Hour)
	}
	return truth
}

// ablationPlans is the plan each §3.3.4 workload submits at the horizon
// start, by kind and strategy.
var ablationPlans = map[string]map[string]string{
	"hier-agg": {
		// Every node ships its partial straight to one rendezvous site.
		"direct": `
query agg timeout 20s
opgraph g1 disseminate broadcast {
    scan = Scan(table='vals')
    agg  = GroupBy(keys='k', aggs='count(*) as cnt', flushevery='6s')
    ship = Put(ns='agg.partial', fixedkey='all')
    agg <- scan
    ship <- agg
}
opgraph g2 disseminate equality 'agg.partial' 'all' {
    recv  = Scan(table='agg.partial')
    final = GroupBy(keys='k', aggs='sum(cnt) as cnt')
    out   = Result()
    final <- recv
    out <- final
}
`,
		// Partials merge en route up a tree toward the root.
		"hierarchical": `
query agg timeout 20s
opgraph g disseminate broadcast {
    scan = Scan(table='vals')
    agg  = HierAgg(ns='agg.tree', keys='k', aggs='count(*) as cnt', senddelay='5s', wait='250ms')
    out  = Result()
    agg <- scan
    out <- agg
}
`,
	},
	"join": {
		// Both relations rehash into j.x, where a symmetric hash join
		// meets them.
		"symmetric-hash": `
query j timeout 25s
opgraph gr disseminate broadcast {
    scan = Scan(table='r')
    put  = Put(ns='j.x', key='id')
    put <- scan
}
opgraph gs disseminate broadcast {
    scan = Scan(table='s')
    put  = Put(ns='j.x', key='id')
    put <- scan
}
opgraph gj disseminate broadcast {
    l = Scan(table='j.x', only='r')
    r = Scan(table='j.x', only='s')
    j = Join(leftkey='id', rightkey='id')
    o = Result()
    j.left <- l
    j.right <- r
    o <- j
}
`,
		// Each R row probes S's sindex hash index: the distributed index
		// join.
		"fetch-matches": `
query j timeout 25s
opgraph g disseminate broadcast {
    scan = Scan(table='r')
    fm   = FetchMatches(ns='sindex', key='id')
    o    = Result()
    fm <- scan
    o <- fm
}
`,
		// S rehashes and publishes a Bloom filter of its ids; R rehashes
		// only the rows the filter admits.
		"bloom-rehash": `
query j timeout 25s
opgraph gb disseminate broadcast {
    scan = Scan(table='s')
    tee  = Tee()
    bb   = BloomBuild(ns='j.bf', key='id', expected=64, flushevery='3s')
    sput = Put(ns='j.x', key='id')
    tee <- scan
    bb <- tee
    sput <- tee
}
opgraph gp disseminate broadcast {
    scan = Scan(table='r')
    bf   = BloomFilter(ns='j.bf', key='id', fetchdelay='7s')
    put  = Put(ns='j.x', key='id')
    bf <- scan
    put <- bf
}
opgraph gj disseminate broadcast {
    l = Scan(table='j.x', only='r')
    r = Scan(table='j.x', only='s')
    j = Join(leftkey='id', rightkey='id')
    o = Result()
    j.left <- l
    j.right <- r
    o <- j
}
`,
	},
}
