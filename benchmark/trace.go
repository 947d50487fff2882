package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pier/internal/vri"
)

// Tracing is done entirely from outside the program: a vri.Runtime
// decorator sees every handler, timer callback, ack and send a node
// makes, and the workload drivers bracket their own calls into the
// query processor. Spans nest on one stack (the sequential simulator
// runs everything on the driver goroutine), so each span's self time is
// its duration minus its children's, and the self times of everything
// under an Env.Run span add up to that span exactly.

// bucket is the layer a span's self time is charged to.
type bucket int

const (
	bSimRun          bucket = iota // Env.Run itself: heap, dispatch, delivery
	bOverlayHandler                // PortOverlay Listen handler
	bOverlayTimer                  // Schedule callbacks armed by internal/overlay
	bOverlayAck                    // acks of sends to PortOverlay
	bQPHandler                     // PortQuery Listen handler
	bQPTimer                       // Schedule callbacks armed by internal/qp
	bQPAck                         // acks of sends to PortQuery
	bQPPublish                     // Node.Publish / Node.PublishLocal
	bQPSubmit                      // sqlfront/ufl compile + Node.Submit
	bHarnessCallback               // the benchmark's own result/ack callbacks
	bHarnessTimer                  // Schedule callbacks armed by the benchmark
	bOtherTimer                    // armed by any other package: unattributed
	bOtherHandler                  // a port that is neither overlay nor query
	bDriver                        // driver-side phases (setup, round, check)
	nBuckets
)

var bucketNames = [nBuckets]string{
	"sim.run", "overlay.handler", "overlay.timer", "overlay.ack",
	"qp.handler", "qp.timer", "qp.ack", "qp.publish", "qp.submit",
	"harness.callback", "harness.timer", "other.timer", "other.handler",
	"driver",
}

// span is one recorded interval; times are nanoseconds since the
// tracer's origin, Parent indexes the span list (-1 at the top).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

type frame struct {
	b       bucket
	start   time.Duration
	child   time.Duration
	spanIdx int32 // -1 when the span is counted but not kept
}

// maxBoundarySpans bounds how many runtime-boundary spans (handlers,
// timers, acks, per-row callbacks) the trace file keeps; a workload makes
// millions, and the totals are in the aggregate table either way.
// Driver-side spans are always kept.
const maxBoundarySpans = 50000

// tracer is nil on untraced runs; every method is a no-op on nil so the
// workloads call it unconditionally.
type tracer struct {
	origin   time.Time
	stack    []frame
	self     [nBuckets]time.Duration
	total    [nBuckets]time.Duration
	calls    [nBuckets]uint64
	spans    []span
	boundary int // boundary spans kept so far

	sendMsgs  map[vri.Port]uint64
	sendBytes map[vri.Port]uint64
	armedBy   map[uintptr]bucket // Schedule caller PC → timer bucket
}

func newTracer() *tracer {
	return &tracer{
		origin:    time.Now(),
		sendMsgs:  make(map[vri.Port]uint64),
		sendBytes: make(map[vri.Port]uint64),
		armedBy:   make(map[uintptr]bucket),
	}
}

func (t *tracer) enter(b bucket, keep bool, id int64) {
	if t == nil {
		return
	}
	idx := int32(-1)
	if !keep && t.boundary < maxBoundarySpans {
		keep = true
		t.boundary++
	}
	now := time.Since(t.origin)
	if keep {
		parent := int32(-1)
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].spanIdx >= 0 {
				parent = t.stack[i].spanIdx
				break
			}
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: bucketNames[b], ID: id, Start: int64(now), Parent: parent})
	}
	t.stack = append(t.stack, frame{b: b, start: now, spanIdx: idx})
}

func (t *tracer) exit() {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.self[f.b] += d - f.child
	t.total[f.b] += d
	t.calls[f.b]++
	if f.spanIdx >= 0 {
		t.spans[f.spanIdx].End = int64(now)
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// begin opens a driver-side span (always kept); name refines the
// bucket's own name in the trace file.
func (t *tracer) begin(b bucket, name string, id int64) {
	if t == nil {
		return
	}
	t.enter(b, true, id)
	if name != "" {
		t.spans[len(t.spans)-1].Name = name
	}
}

// timerBucket attributes a Schedule call to the package that made it.
// The caller's PC is resolved to a function name once and cached.
func (t *tracer) timerBucket() bucket {
	var pc [1]uintptr
	// 0 = Callers, 1 = timerBucket, 2 = tracedRuntime.Schedule, 3 = caller.
	if runtime.Callers(3, pc[:]) == 0 {
		return bOtherTimer
	}
	if b, ok := t.armedBy[pc[0]]; ok {
		return b
	}
	fr, _ := runtime.CallersFrames(pc[:]).Next()
	b := bOtherTimer
	switch {
	case strings.HasPrefix(fr.Function, "pier/internal/overlay."):
		b = bOverlayTimer
	case strings.HasPrefix(fr.Function, "pier/internal/qp."):
		b = bQPTimer
	case strings.HasPrefix(fr.Function, "main."), strings.HasPrefix(fr.Function, "pier/benchmark."):
		b = bHarnessTimer
	}
	t.armedBy[pc[0]] = b
	return b
}

func portBuckets(p vri.Port) (handler, ack bucket) {
	switch p {
	case vri.PortOverlay:
		return bOverlayHandler, bOverlayAck
	case vri.PortQuery:
		return bQPHandler, bQPAck
	}
	return bOtherHandler, bOtherHandler
}

// tracedRuntime decorates one node's runtime. It changes no behaviour:
// every call is forwarded one to one, so a traced simulation dispatches
// the same events in the same order as an untraced one.
type tracedRuntime struct {
	inner vri.Runtime
	t     *tracer
}

func (t *tracer) wrap(rt vri.Runtime) vri.Runtime { return &tracedRuntime{inner: rt, t: t} }

func (r *tracedRuntime) Addr() vri.Addr     { return r.inner.Addr() }
func (r *tracedRuntime) Now() time.Time     { return r.inner.Now() }
func (r *tracedRuntime) Rand() *rand.Rand   { return r.inner.Rand() }
func (r *tracedRuntime) Release(p vri.Port) { r.inner.Release(p) }

func (r *tracedRuntime) Schedule(delay time.Duration, fn func()) vri.Timer {
	t, b := r.t, r.t.timerBucket()
	return r.inner.Schedule(delay, func() {
		t.enter(b, false, 0)
		fn()
		t.exit()
	})
}

func (r *tracedRuntime) Listen(p vri.Port, h vri.MessageHandler) error {
	t := r.t
	b, _ := portBuckets(p)
	return r.inner.Listen(p, func(src vri.Addr, payload []byte) {
		t.enter(b, false, 0)
		h(src, payload)
		t.exit()
	})
}

func (r *tracedRuntime) Send(dst vri.Addr, p vri.Port, payload []byte, ack vri.AckFunc) {
	t := r.t
	t.sendMsgs[p]++
	t.sendBytes[p] += uint64(len(payload))
	if ack == nil {
		r.inner.Send(dst, p, payload, nil)
		return
	}
	_, b := portBuckets(p)
	r.inner.Send(dst, p, payload, func(ok bool) {
		t.enter(b, false, 0)
		ack(ok)
		t.exit()
	})
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Aggregate is every bucket's call count, total and self time: the
	// whole run, however many spans were kept.
	Aggregate []bucketTotal `json:"aggregate"`
	// SpansDropped counts boundary spans left out of Spans.
	SpansDropped uint64 `json:"spans_dropped"`
	Spans        []span `json:"spans"`
}

type bucketTotal struct {
	Name   string  `json:"name"`
	Calls  uint64  `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	var calls uint64
	for b := bucket(0); b < nBuckets; b++ {
		calls += t.calls[b]
		tf.Aggregate = append(tf.Aggregate, bucketTotal{
			Name: bucketNames[b], Calls: t.calls[b],
			TotalS: t.total[b].Seconds(), SelfS: t.self[b].Seconds(),
		})
	}
	tf.SpansDropped = calls - uint64(len(t.spans))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
