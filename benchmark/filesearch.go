package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"pier/internal/overlay"
	"pier/internal/qp"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/workload"
)

// filesearch is the paper's Figure 1 application: a keyword index over
// shared files, published as a DHT hash index, answering rare-keyword
// lookups from any node while new files keep being published. Overlay
// routing and ring maintenance dominate it; the executor does almost
// nothing. It is the only workload where first-result latency and hop
// counts mean anything and where overlay reads and writes compete.

type filesearchSpec struct {
	nodes  int
	files  int
	vocab  int
	maxRep int
	// rounds is the measured rounds at -seconds = run_seconds; each is
	// fsRoundLen of virtual time and starts lookups lookups and puts
	// publishes at one driver barrier (a closed loop at round barriers).
	rounds  int
	lookups int
	puts    int
}

// maxRep 8 over a 400-word Zipf vocabulary gives ≈2.4 replicas per file:
// ≈19k index entries for 4000 files.
var filesearchFull = filesearchSpec{nodes: 256, files: 4000, vocab: 400, maxRep: 8, rounds: 320, lookups: 8, puts: 8}

const (
	fsRoundLen = 2 * time.Second
	// fsTimeout is each lookup's TIMEOUT; a lookup with no correct row by
	// then counts as a miss at this latency.
	fsTimeout  = 4 * time.Second
	fsLifetime = 4 * time.Hour
)

var fsSQLOpts = sqlfront.Options{TableIndexes: map[string][]string{"fileindex": {"keyword"}}}

// fsTarget is something a lookup can ask for: a keyword and the rows the
// index must return for it.
type fsTarget struct {
	keyword string
	want    []string // sorted "file|host"
}

type fsLookup struct {
	target   fsTarget
	submitAt time.Time
	firstAt  time.Time
	got      []string
	done     bool
}

type fsPut struct {
	target  fsTarget
	sentAt  time.Time
	ackedAt time.Time
	acked   bool
	ok      bool
}

type fsWorld struct {
	spec    filesearchSpec
	c       *simCluster
	tr      *tracer
	rng     *rand.Rand
	pool    []fsTarget // rare catalog files, then acked new files
	lookups []*fsLookup
	puts    []*fsPut
	sqls    []string
	plans   []*ufl.Query
	sample  []*tuple.Tuple
	entries int
}

func fsTuple(keyword, file string, host vri.Addr) *tuple.Tuple {
	return tuple.New("fileindex").
		Set("keyword", tuple.String(keyword)).
		Set("file", tuple.String(file)).
		Set("host", tuple.String(string(host)))
}

// setupFilesearch builds the ring and publishes the catalog's index.
func setupFilesearch(spec filesearchSpec, o runOpts, tr *tracer) (*fsWorld, error) {
	env := newSimEnv(o.seed, 0)
	cfg := qp.Config{}
	cfg.DHT.MaxLifetime = 24 * time.Hour
	var wrap func(vri.Runtime) vri.Runtime
	if tr != nil {
		wrap = tr.wrap
	}
	c, err := buildCluster(env, spec.nodes, cfg, wrap)
	if err != nil {
		return nil, err
	}
	w := &fsWorld{spec: spec, c: c, tr: tr, rng: rand.New(rand.NewSource(o.seed + 7))}
	cat := workload.NewCatalog(workload.CatalogConfig{
		NumFiles: spec.files, VocabSize: spec.vocab, ZipfS: 1.0, MaxReplicas: spec.maxRep, RareMax: 3, Seed: o.seed + 1,
	})
	acked, nacked := 0, 0
	ack := func(ok bool) {
		if ok {
			acked++
		} else {
			nacked++
		}
	}
	for _, f := range cat.Files {
		hosts := w.rng.Perm(spec.nodes)[:f.Replicas]
		var want []string
		for _, h := range hosts {
			host := c.nodes[h].Addr()
			want = append(want, f.Name+"|"+string(host))
			for _, kw := range f.Keywords {
				t := fsTuple(kw, f.Name, host)
				if len(w.sample) < replayRows {
					w.sample = append(w.sample, t)
				}
				c.nodes[h].Publish("fileindex", []string{"keyword"}, t, fsLifetime, ack)
				w.entries++
			}
		}
		if f.Replicas <= cat.RareMax {
			sort.Strings(want)
			w.pool = append(w.pool, fsTarget{keyword: f.Keywords[1], want: want})
		}
	}
	for waited := 0; acked+nacked < w.entries && waited < 12; waited++ {
		env.Run(10 * time.Second)
	}
	if acked != w.entries {
		return nil, fmt.Errorf("filesearch: %d of %d index entries acked (%d refused)", acked, w.entries, nacked)
	}
	return w, nil
}

// round starts one round's lookups and publishes at the current barrier
// and runs the simulator for the round's length.
func (w *fsWorld) round(r int) time.Duration {
	env, nodes := w.c.env, w.c.nodes
	t0 := time.Now()
	for j := 0; j < w.spec.lookups; j++ {
		l := &fsLookup{target: w.pool[w.rng.Intn(len(w.pool))], submitAt: env.Now()}
		proxy := nodes[w.rng.Intn(len(nodes))]
		id := len(w.lookups)
		w.lookups = append(w.lookups, l)
		sql := fmt.Sprintf("SELECT file, host FROM fileindex WHERE keyword = '%s' TIMEOUT %s", l.target.keyword, fsTimeout)
		w.tr.begin(bQPSubmit, "", int64(id))
		plan, err := sqlfront.Run(fmt.Sprintf("fs%d", id), sql, fsSQLOpts)
		if err == nil {
			err = proxy.Submit(plan, "filesearch", w.onRow(l, proxy.Runtime()), func() { l.done = true })
		}
		w.tr.exit()
		if err != nil {
			l.done = true // counted as failed by check: no rows
			continue
		}
		if len(w.sqls) < 200 {
			w.sqls, w.plans = append(w.sqls, sql), append(w.plans, plan)
		}
	}
	for j := 0; j < w.spec.puts; j++ {
		host := nodes[w.rng.Intn(len(nodes))]
		file := fmt.Sprintf("new-%d-%d.mp3", r, j)
		p := &fsPut{
			target: fsTarget{keyword: fmt.Sprintf("nkw%d-%d", r, j), want: []string{file + "|" + string(host.Addr())}},
			sentAt: env.Now(),
		}
		w.puts = append(w.puts, p)
		rt := host.Runtime()
		w.tr.begin(bQPPublish, "", int64(len(w.puts)-1))
		host.Publish("fileindex", []string{"keyword"}, fsTuple(p.target.keyword, file, host.Addr()), fsLifetime, func(ok bool) {
			w.tr.enter(bHarnessCallback, false, 0)
			p.acked, p.ok, p.ackedAt = true, ok, rt.Now()
			w.tr.exit()
		})
		w.tr.exit()
	}
	w.tr.begin(bSimRun, "", int64(r))
	env.Run(fsRoundLen)
	w.tr.exit()
	// Files whose publish was acked this round can be looked up from the
	// next one on: a lookup then checks that the write is readable.
	for _, p := range w.puts[len(w.puts)-w.spec.puts:] {
		if p.acked && p.ok {
			w.pool = append(w.pool, p.target)
		}
	}
	return time.Since(t0)
}

func (w *fsWorld) onRow(l *fsLookup, rt vri.Runtime) func(*tuple.Tuple) {
	return func(t *tuple.Tuple) {
		w.tr.enter(bHarnessCallback, false, 0)
		file, _ := t.Get("file")
		host, _ := t.Get("host")
		f, _ := file.AsString()
		h, _ := host.AsString()
		if len(l.got) == 0 {
			l.firstAt = rt.Now()
		}
		l.got = append(l.got, f+"|"+h)
		w.tr.exit()
	}
}

// measure runs the rounds, reads the live heap at the middle barrier
// with the clock stopped, then lets the last lookups time out.
func (w *fsWorld) measure(rounds int) (wall time.Duration, heapMB float64) {
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			heapMB = liveHeapMB()
		}
		wall += w.round(r)
	}
	t0 := time.Now()
	w.tr.begin(bSimRun, "sim.run drain", 0)
	w.c.env.Run(fsTimeout + 3*time.Second)
	w.tr.exit()
	return wall + time.Since(t0), heapMB
}

// check compares every lookup's row set with the catalog's ground truth
// and every publish's ack, and returns the latency samples.
func (w *fsWorld) check() (attempted, failed int, first, putAck []float64, notes []string) {
	note := func(format string, args ...any) {
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	for i, l := range w.lookups {
		attempted++
		sort.Strings(l.got)
		if strings.Join(l.got, ",") != strings.Join(l.target.want, ",") || !l.done {
			failed++
			note("lookup %d for %q: got %v, want %v, done=%v", i, l.target.keyword, l.got, l.target.want, l.done)
			first = append(first, ms(fsTimeout))
			continue
		}
		first = append(first, ms(l.firstAt.Sub(l.submitAt)))
	}
	for i, p := range w.puts {
		attempted++
		if !p.acked || !p.ok {
			failed++
			note("publish %d of %q: acked=%v ok=%v", i, p.target.keyword, p.acked, p.ok)
			continue
		}
		putAck = append(putAck, ms(p.ackedAt.Sub(p.sentAt)))
	}
	sort.Float64s(first)
	sort.Float64s(putAck)
	return attempted, failed, first, putAck, notes
}

// probeOverlay issues n direct Lookup, Get and Put operations on the
// workload's own ring, after the measured phase, and reports their
// virtual-time medians and the host cost of a Get.
func (w *fsWorld) probeOverlay(res *result, n int) {
	env, nodes := w.c.env, w.c.nodes
	run := func(issue func(i int, from *qp.Node, done func())) (p50 float64, hostUS float64) {
		var lat []float64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			from := nodes[w.rng.Intn(len(nodes))]
			start, rt := env.Now(), from.Runtime()
			issue(i, from, func() { lat = append(lat, ms(rt.Now().Sub(start))) })
		}
		env.Run(15 * time.Second)
		hostUS = float64(time.Since(t0).Microseconds()) / float64(n)
		if len(lat) != n {
			res.fail("overlay probe: %d of %d operations completed", len(lat), n)
		}
		sort.Float64s(lat)
		return quantile(lat, 0.5), hostUS
	}
	target := func(i int) fsTarget { return w.pool[(i*7919)%len(w.pool)] }
	lookup, _ := run(func(i int, from *qp.Node, done func()) {
		from.DHT().Lookup("fileindex", target(i).keyword, func(vri.Addr, error) { done() })
	})
	get, getHost := run(func(i int, from *qp.Node, done func()) {
		key, _ := fsTuple(target(i).keyword, "", "").KeyString("keyword")
		from.DHT().Get("fileindex", key, func(objs []overlay.Object, err error) {
			if err != nil || len(objs) != len(target(i).want) {
				res.fail("overlay probe: Get %q returned %d objects (%v), want %d", key, len(objs), err, len(target(i).want))
			}
			done()
		})
	})
	put, _ := run(func(i int, from *qp.Node, done func()) {
		from.DHT().Put("probe", fmt.Sprintf("k%d", i), "s", []byte("v"), time.Minute, func(bool) { done() })
	})
	res.put("overlay.lookup_virt_ms_p50", lookup, "ms")
	res.put("overlay.get_virt_ms_p50", get, "ms")
	res.put("overlay.put_virt_ms_p50", put, "ms")
	res.put("overlay.get_host_us", getHost, "us")
}

func runFilesearch(spec filesearchSpec, o runOpts) (*result, error) {
	res := &result{Workload: "filesearch", Seed: o.seed, Traced: o.trace}
	var tr *tracer
	var w *fsWorld
	setupS, err := medianSetup(o, func(last bool) (err error) {
		if last && o.trace {
			tr = newTracer()
		}
		w, err = setupFilesearch(spec, o, tr)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	rounds := int(float64(spec.rounds)*o.scale + 0.5)
	if rounds < 4 {
		rounds = 4
	}
	tr.resetTotals()
	sim0, nodes0, go0 := readSim(w.c.env), readNodes(w.c.nodes), readGo()
	wall, heapMB := w.measure(rounds)
	simD, nodesAll := readSim(w.c.env).sub(sim0), readNodes(w.c.nodes)
	nodesD, goD := nodesAll.sub(nodes0), readGo().sub(go0)

	attempted, failed, first, putAck, notes := w.check()
	res.Attempted, res.Failed, res.Notes = attempted, failed, notes
	if nodesD.leaked != 0 {
		res.fail("qp.leaked = %d after every query ended, want 0", nodesD.leaked)
	}

	if !o.trace {
		tail := tailPercentile(len(first))
		res.add(Metric{Name: "setup_s", Value: setupS, Unit: "s", N: o.setups, Clock: "host",
			Detail: fmt.Sprintf("ring build and %d index entries published", w.entries)})
		res.add(Metric{Name: "wall_s", Value: wall.Seconds(), Unit: "s", Clock: "host",
			Detail: fmt.Sprintf("%d rounds of %s virtual", rounds, fsRoundLen)})
		res.add(Metric{Name: "latency_ms_p50", Value: quantile(first, 0.5), Unit: "ms", N: len(first), Clock: "virt",
			Detail: "first_result_virt_ms_p50: submit to first correct row at the proxy, a miss counts as the timeout"})
		res.add(Metric{Name: "latency_ms_tail", Value: quantile(first, tail), Unit: "ms", N: len(first), Clock: "virt",
			Detail: fmt.Sprintf("first_result_virt_ms_p%g", tail*100)})
		res.add(Metric{Name: "net_mb", Value: mb(simD.bytes), Unit: "MB", Clock: "virt", Detail: "simulated bytes sent"})
		res.add(Metric{Name: "live_heap_mb", Value: heapMB, Unit: "MB", Detail: "after a forced GC at the mid-run barrier"})
		res.add(Metric{Name: "result_recall", Value: float64(attempted-failed) / float64(attempted), Unit: "ratio", N: attempted})
		res.add(Metric{Name: "ops_per_s", Value: float64(attempted) / wall.Seconds(), Unit: "1/s", N: attempted, Clock: "host",
			Detail: "lookups and publishes completed per host second"})
		return res, nil
	}

	res.add(Metric{Name: "trace.wall_s", Value: wall.Seconds(), Unit: "s", Clock: "host"})
	addHostCalibration(res, o)
	addSimLayer(res, tr, simD)
	addOverlayLayer(res, tr, nodesD)
	addQPLayer(res, tr, nodesD, nodesAll, uint64(len(w.puts)))
	addGoLayer(res, goD, simD.events)
	res.add(Metric{Name: "qp.publish_ack_virt_ms_p50", Value: quantile(putAck, 0.5), Unit: "ms", N: len(putAck), Clock: "virt"})
	res.put("qp.submit_us_per_query", ratio(float64(tr.self[bQPSubmit].Microseconds()), float64(tr.calls[bQPSubmit])), "us")
	addPlanReplays(res, o, w.plans, nil)
	addSQLReplay(res, o, w.sqls, fsSQLOpts)
	addTupleReplays(res, o, w.sample)
	w.probeOverlay(res, 500)
	path, err := tr.write(o.outDir, res.Workload, o.seed)
	if err != nil {
		return nil, err
	}
	res.Info = append(res.Info, "trace: "+path)
	return res, nil
}
