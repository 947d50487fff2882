package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"pier/internal/phys"
	"pier/internal/qp"
	"pier/internal/sqlfront"
	"pier/internal/tuple"
	"pier/internal/vri"
)

// phys_loopback is the real runtime with no simulator anywhere: three
// phys.Runtime + qp.Node in this process on loopback UDP, each serving
// clients over TCP, and one closed-loop client that alternates an index
// lookup through a proxy with an acked publish, one operation
// outstanding. A simulator optimisation must not move it; a phys or
// qp.Client one moves only it.

type physSpec struct {
	preload int
	// ops is the measured operations at -seconds = run_seconds, about
	// what the reference box completes in that time; warmOps run first
	// and are discarded.
	ops     int
	warmOps int
	// settle is the pause between warm-up and measurement in which the
	// warm-up's query state expires: 1 s TIMEOUT + 2 s done grace.
	settle time.Duration
}

var physFull = physSpec{preload: 2000, ops: 6000, warmOps: 1500, settle: 3300 * time.Millisecond}

const (
	physNodes = 3
	// physOpTimeout fails an operation that got no answer.
	physOpTimeout = 3 * time.Second
	physLifetime  = time.Hour
)

// physPortBases are the fixed loopback ports tried in turn, all below the
// ephemeral range: phys opens its TCP listener on the same number as its
// UDP port, and a port the kernel picked for UDP can be refused for TCP
// while earlier client sockets sit in TIME_WAIT.
var physPortBases = []int{17400, 18400, 19400, 20400}

var physSQLOpts = sqlfront.Options{TableIndexes: map[string][]string{"kv": {"k"}}}

// countingRuntime counts what a node sends; everything else is the
// runtime's own. It is there on traced and untraced runs alike, because
// the physical runtime keeps no traffic counters of its own.
type countingRuntime struct {
	vri.StreamRuntime
	msgs, bytes atomic.Uint64
}

func (c *countingRuntime) Send(dst vri.Addr, port vri.Port, payload []byte, ack vri.AckFunc) {
	c.msgs.Add(1)
	c.bytes.Add(uint64(len(payload)))
	c.StreamRuntime.Send(dst, port, payload, ack)
}

type physWorld struct {
	runtimes []*phys.Runtime
	counters []*countingRuntime
	nodes    []*qp.Node
	clientRT *phys.Runtime
	clients  []*qp.Client
	rng      *rand.Rand
	seed     int64
	keys     []string // keys a lookup may ask for: preloaded, then acked writes
	written  int

	rows   chan *tuple.Tuple // result rows from any client connection
	acks   chan bool         // publish acks
	errors chan error        // client connection errors
	sqls   []string
}

// physValue is the value stored under key: a function of key and seed,
// so a lookup can be checked without remembering what was written.
func physValue(seed int64, key string) string {
	h := uint64(seed) * 1099511628211
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return fmt.Sprintf("v%016x", h)
}

// onLoop runs fn on the runtime's scheduler goroutine, where all program
// logic has to run, and waits for it.
func onLoop(rt vri.Runtime, fn func()) {
	done := make(chan struct{})
	rt.Schedule(0, func() { fn(); close(done) })
	<-done
}

func (w *physWorld) close() {
	for _, c := range w.clients {
		c.Close()
	}
	if w.clientRT != nil {
		w.clientRT.Close()
	}
	for i, n := range w.nodes {
		onLoop(w.runtimes[i], func() { n.StopServingClients(); n.Stop() })
	}
	for _, rt := range w.runtimes {
		rt.Close()
	}
}

// bindRuntimes binds physNodes runtimes on the first port base that is
// free.
func bindRuntimes(seed int64) ([]*phys.Runtime, error) {
	var lastErr error
	for _, base := range physPortBases {
		var rts []*phys.Runtime
		for i := 0; i < physNodes; i++ {
			rt, err := phys.New(phys.Config{Bind: fmt.Sprintf("127.0.0.1:%d", base+i), Seed: seed + int64(i) + 1})
			if err != nil {
				lastErr = err
				break
			}
			rts = append(rts, rt)
		}
		if len(rts) == physNodes {
			return rts, nil
		}
		for _, rt := range rts {
			rt.Close()
		}
	}
	return nil, fmt.Errorf("no free loopback port base among %v: %w", physPortBases, lastErr)
}

// setupPhys starts the three nodes, joins them into one ring, preloads
// the table and connects one client per proxy.
func setupPhys(spec physSpec, o runOpts) (w *physWorld, err error) {
	w = &physWorld{
		rng: rand.New(rand.NewSource(o.seed + 3)), seed: o.seed,
		rows: make(chan *tuple.Tuple, 64), acks: make(chan bool, 64), errors: make(chan error, 8),
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.runtimes, err = bindRuntimes(o.seed); err != nil {
		return nil, err
	}
	for _, rt := range w.runtimes {
		c := &countingRuntime{StreamRuntime: rt}
		n := qp.NewNode(c, qp.Config{})
		var startErr error
		onLoop(rt, func() {
			if startErr = n.Start(); startErr == nil {
				// The TCP listener shares the UDP port's number, so this
				// is where a port collision shows.
				startErr = n.ServeClients()
			}
		})
		w.counters, w.nodes = append(w.counters, c), append(w.nodes, n)
		if startErr != nil {
			return nil, fmt.Errorf("start %s: %w", rt.Addr(), startErr)
		}
	}
	for i := 1; i < physNodes; i++ {
		joined := make(chan error, 1)
		n := w.nodes[i]
		w.runtimes[i].Schedule(0, func() { n.Join(w.nodes[0].Addr(), func(err error) { joined <- err }) })
		select {
		case err := <-joined:
			if err != nil {
				return nil, fmt.Errorf("join %s: %w", n.Addr(), err)
			}
		case <-time.After(15 * time.Second):
			return nil, fmt.Errorf("join %s: no answer", n.Addr())
		}
	}
	// Every node must know a successor and a predecessor other than
	// itself before ownership arcs cover the ring.
	deadline := time.Now().Add(20 * time.Second)
	for settled := 0; settled < physNodes; {
		settled = 0
		for i, n := range w.nodes {
			onLoop(w.runtimes[i], func() {
				if d := n.DHT(); d.Successor() != n.Addr() && d.Predecessor() != "" {
					settled++
				}
			})
		}
		if settled < physNodes {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("ring of %d did not converge", physNodes)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Preload with a window of puts in flight.
	const window = 32
	inFlight := 0
	for i := 0; i < spec.preload; i++ {
		key := fmt.Sprintf("key%05d", i)
		w.publish(i%physNodes, key)
		w.keys = append(w.keys, key)
		if inFlight++; inFlight == window {
			if err := w.awaitAck(); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			inFlight--
		}
	}
	for ; inFlight > 0; inFlight-- {
		if err := w.awaitAck(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}

	if w.clientRT, err = phys.New(phys.Config{Seed: o.seed + 99}); err != nil {
		return nil, err
	}
	for _, n := range w.nodes {
		c, err := qp.NewClient(w.clientRT, n.Addr(),
			func(t *tuple.Tuple) { w.rows <- t }, nil,
			func(err error) {
				select {
				case w.errors <- err:
				default:
				}
			})
		if err != nil {
			return nil, fmt.Errorf("connect %s: %w", n.Addr(), err)
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

// publish starts an acked Publish of key through node i; the ack arrives
// on w.acks.
func (w *physWorld) publish(i int, key string) {
	n := w.nodes[i]
	t := tuple.New("kv").Set("k", tuple.String(key)).Set("v", tuple.String(physValue(w.seed, key)))
	w.runtimes[i].Schedule(0, func() {
		n.Publish("kv", []string{"k"}, t, physLifetime, func(ok bool) { w.acks <- ok })
	})
}

func (w *physWorld) awaitAck() error {
	select {
	case ok := <-w.acks:
		if !ok {
			return fmt.Errorf("publish refused")
		}
		return nil
	case <-time.After(physOpTimeout):
		return fmt.Errorf("publish not acked within %s", physOpTimeout)
	}
}

// lookup runs one index lookup through proxy i and checks the value.
func (w *physWorld) lookup(i, op int) error {
	key := w.keys[w.rng.Intn(len(w.keys))]
	sql := fmt.Sprintf("SELECT k, v FROM kv WHERE k = '%s' TIMEOUT 1s", key)
	if len(w.sqls) < 200 {
		w.sqls = append(w.sqls, sql)
	}
	plan, err := sqlfront.Run(fmt.Sprintf("pl%d-%d", w.seed, op), sql, physSQLOpts)
	if err != nil {
		return err
	}
	w.clients[i].RunPlan(plan)
	timeout := time.After(physOpTimeout)
	for {
		select {
		case t := <-w.rows:
			k, _ := t.Get("k")
			if ks, _ := k.AsString(); ks != key {
				continue // a late row of an earlier lookup
			}
			v, _ := t.Get("v")
			if vs, _ := v.AsString(); vs != physValue(w.seed, key) {
				return fmt.Errorf("lookup %q returned %q, want %q", key, vs, physValue(w.seed, key))
			}
			return nil
		case err := <-w.errors:
			return fmt.Errorf("client connection: %w", err)
		case <-timeout:
			return fmt.Errorf("lookup %q: no row within %s", key, physOpTimeout)
		}
	}
}

// put publishes a new key through node i and waits for the ack; the key
// becomes something later lookups may ask for.
func (w *physWorld) put(i int) error {
	key := fmt.Sprintf("w%06d", w.written)
	w.written++
	w.publish(i, key)
	if err := w.awaitAck(); err != nil {
		return fmt.Errorf("publish %q: %w", key, err)
	}
	w.keys = append(w.keys, key)
	return nil
}

// physLoop is the closed loop: ops operations, lookups and publishes
// alternating, proxies in rotation.
type physLoop struct {
	wall        time.Duration
	lookup, put []float64 // host ms per operation
	failed      int
	notes       []string
	msgs, bytes uint64
}

func (w *physWorld) loop(ops, firstOp int, tr *tracer) physLoop {
	var l physLoop
	var msgs0, bytes0 uint64
	for _, c := range w.counters {
		msgs0 += c.msgs.Load()
		bytes0 += c.bytes.Load()
	}
	start := time.Now()
	for op := 0; op < ops; op++ {
		i := op % physNodes
		t0 := time.Now()
		var err error
		if op%2 == 0 {
			tr.begin(bDriver, "lookup", int64(op))
			err = w.lookup(i, firstOp+op)
			tr.exit()
			l.lookup = append(l.lookup, ms(time.Since(t0)))
		} else {
			tr.begin(bDriver, "publish", int64(op))
			err = w.put(i)
			tr.exit()
			l.put = append(l.put, ms(time.Since(t0)))
		}
		if err != nil {
			l.failed++
			if len(l.notes) < 5 {
				l.notes = append(l.notes, fmt.Sprintf("op %d: %v", op, err))
			}
		}
	}
	l.wall = time.Since(start)
	for _, c := range w.counters {
		l.msgs += c.msgs.Load()
		l.bytes += c.bytes.Load()
	}
	l.msgs -= msgs0
	l.bytes -= bytes0
	return l
}

func runPhysLoopback(spec physSpec, o runOpts) (*result, error) {
	res := &result{Workload: "phys_loopback", Seed: o.seed, Traced: o.trace}
	var w *physWorld
	setupS, err := medianSetup(o, func(bool) (err error) {
		w, err = setupPhys(spec, o)
		return err
	}, func() { w.close() })
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ops := int(float64(spec.ops)*o.scale + 0.5)
	if ops < 20 {
		ops = 20
	}
	warm := w.loop(spec.warmOps, 0, nil)
	// How much of the warm-up's query state is still alive depends on how
	// fast the box ran it, so the heap is read once all of it has expired:
	// what is left is the ring, the stored keys, and anything that leaked.
	// The I/O goroutines hold 64 KB datagram buffers now and then; the
	// smallest of three readings leaves those out.
	time.Sleep(spec.settle)
	heapMB := liveHeapMB()
	for i := 0; i < 2; i++ {
		time.Sleep(10 * time.Millisecond)
		heapMB = math.Min(heapMB, liveHeapMB())
	}
	go0 := readGo()
	l := w.loop(ops, spec.warmOps, tr)
	goD := readGo().sub(go0)

	res.Attempted, res.Failed = ops, l.failed
	res.Notes = l.notes
	if warm.failed != 0 {
		res.fail("%d warm-up operations failed: %v", warm.failed, warm.notes)
	}
	lk, pt := l.lookup, l.put
	sort.Float64s(lk)
	sort.Float64s(pt)

	if !o.trace {
		res.add(Metric{Name: "setup_s", Value: setupS, Unit: "s", N: o.setups, Clock: "host",
			Detail: fmt.Sprintf("%d runtimes bound and joined, %d keys preloaded, clients connected", physNodes, spec.preload)})
		res.add(Metric{Name: "wall_s", Value: l.wall.Seconds(), Unit: "s", Clock: "host",
			Detail: fmt.Sprintf("%d closed-loop operations after %d discarded", ops, spec.warmOps)})
		res.add(Metric{Name: "latency_ms_p50", Value: quantile(lk, 0.5), Unit: "ms", N: len(lk), Clock: "host",
			Detail: "lookup_ms_p50: compile, submit over TCP, first matching row back"})
		res.add(Metric{Name: "latency_ms_tail", Value: quantile(lk, 0.9), Unit: "ms", N: len(lk), Clock: "host",
			Detail: "lookup_ms_p90; higher percentiles are too noisy on shared cores and are per-layer"})
		res.add(Metric{Name: "net_mb", Value: mb(l.bytes), Unit: "MB", Clock: "host",
			Detail: "datagram payload bytes the three nodes sent"})
		res.add(Metric{Name: "live_heap_mb", Value: heapMB, Unit: "MB", Detail: "after a forced GC once the warm-up's queries have expired"})
		res.add(Metric{Name: "result_recall", Value: float64(ops-l.failed) / float64(ops), Unit: "ratio", N: ops})
		res.add(Metric{Name: "ops_per_s", Value: float64(ops) / l.wall.Seconds(), Unit: "1/s", N: ops, Clock: "host",
			Detail: "lookups and publishes completed per host second"})
		return res, nil
	}

	res.add(Metric{Name: "trace.wall_s", Value: l.wall.Seconds(), Unit: "s", Clock: "host"})
	res.add(Metric{Name: "phys.lookup_ms_p50", Value: quantile(lk, 0.5), Unit: "ms", N: len(lk), Clock: "host"})
	res.add(Metric{Name: "phys.lookup_ms_p99", Value: quantile(lk, 0.99), Unit: "ms", N: len(lk), Clock: "host"})
	res.add(Metric{Name: "phys.put_ms_p50", Value: quantile(pt, 0.5), Unit: "ms", N: len(pt), Clock: "host"})
	res.add(Metric{Name: "phys.put_ms_p99", Value: quantile(pt, 0.99), Unit: "ms", N: len(pt), Clock: "host"})
	res.put("phys.node_send_msgs", float64(l.msgs), "count")
	res.put("phys.node_send_bytes", float64(l.bytes), "count")
	addHostCalibration(res, o)
	addGoLayer(res, goD, uint64(ops))
	addSQLReplay(res, o, w.sqls, physSQLOpts)
	if err := addPhysReplays(res, o); err != nil {
		return nil, err
	}
	path, err := tr.write(o.outDir, res.Workload, o.seed)
	if err != nil {
		return nil, err
	}
	res.Info = append(res.Info, "trace: "+path)
	return res, nil
}

// echoStream answers every frame with itself.
type echoStream struct{}

func (echoStream) HandleConn(vri.Conn)                {}
func (echoStream) HandleData(c vri.Conn, data []byte) { c.Write(data) }
func (echoStream) HandleError(vri.Conn, error)        {}

// frameSink forwards received frames to a channel.
type frameSink struct{ got chan struct{} }

func (frameSink) HandleConn(vri.Conn)           {}
func (s frameSink) HandleData(vri.Conn, []byte) { s.got <- struct{}{} }
func (frameSink) HandleError(vri.Conn, error)   {}

// addPhysReplays times the physical runtime alone, between two fresh
// runtimes: acked datagram round trips one at a time and 64 at a time,
// and TCP stream echoes.
func addPhysReplays(res *result, o runOpts) error {
	seed := o.seed
	var a, b *phys.Runtime
	var err error
	for _, base := range physPortBases {
		if a, err = phys.New(phys.Config{Bind: fmt.Sprintf("127.0.0.1:%d", base+10), Seed: seed + 11}); err != nil {
			continue
		}
		if b, err = phys.New(phys.Config{Bind: fmt.Sprintf("127.0.0.1:%d", base+11), Seed: seed + 12}); err != nil {
			a.Close()
			continue
		}
		break
	}
	if err != nil {
		return fmt.Errorf("phys replay: %w", err)
	}
	defer a.Close()
	defer b.Close()
	const port = vri.Port(9)
	if err := b.Listen(port, func(vri.Addr, []byte) {}); err != nil {
		return err
	}
	payload := make([]byte, 64)

	n, total := 2000, 20000
	if o.replayDiv > 1 {
		n, total = n/o.replayDiv, total/o.replayDiv
	}
	acked := make(chan bool, 64) // one slot per send in flight
	var rtt []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		a.Send(b.Addr(), port, payload, func(ok bool) { acked <- ok })
		if ok := <-acked; !ok {
			return fmt.Errorf("phys replay: send %d not delivered", i)
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1000)
	}
	sort.Float64s(rtt)
	res.add(Metric{Name: "phys.rtt_us_p50", Value: quantile(rtt, 0.5), Unit: "us", N: n, Clock: "host"})
	res.add(Metric{Name: "phys.rtt_us_p99", Value: quantile(rtt, 0.99), Unit: "us", N: n, Clock: "host"})

	const window = 64
	t0 := time.Now()
	sent, done := 0, 0
	for ; sent < window; sent++ {
		a.Send(b.Addr(), port, payload, func(ok bool) { acked <- ok })
	}
	for done < total {
		if ok := <-acked; !ok {
			return fmt.Errorf("phys replay: windowed send not delivered")
		}
		done++
		if sent < total {
			a.Send(b.Addr(), port, payload, func(ok bool) { acked <- ok })
			sent++
		}
	}
	res.add(Metric{Name: "phys.send_per_s", Value: float64(total) / time.Since(t0).Seconds(), Unit: "1/s", N: total, Clock: "host"})

	if err := b.ListenStream(port, echoStream{}); err != nil {
		return err
	}
	sink := frameSink{got: make(chan struct{}, 1)}
	conn, err := a.Connect(b.Addr(), port, sink)
	if err != nil {
		return err
	}
	defer conn.Close()
	var srtt []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		conn.Write(payload)
		select {
		case <-sink.got:
		case <-time.After(physOpTimeout):
			return fmt.Errorf("phys replay: stream echo %d lost", i)
		}
		srtt = append(srtt, float64(time.Since(t0).Nanoseconds())/1000)
	}
	sort.Float64s(srtt)
	res.add(Metric{Name: "phys.stream_rtt_us_p50", Value: quantile(srtt, 0.5), Unit: "us", N: n, Clock: "host"})
	return nil
}
