package qp

import (
	"fmt"
	"strconv"
	"time"

	"pier/internal/bloom"
	"pier/internal/exec"
	"pier/internal/overlay"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Bloom join support (§3.3.4: "common rewrite strategies such as Bloom
// join and semi-joins can be constructed"). The rewrite is two
// operators:
//
//   - BloomBuild folds the join keys of the local partition of one
//     relation into a Bloom filter and publishes it into a rendezvous
//     namespace at flush time; the filters from all nodes accumulate
//     under one DHT name (distinct suffixes).
//   - BloomFilter fetches and OR-merges those filters, then passes only
//     the tuples of the other relation whose keys might match — so the
//     expensive rehash ships a fraction of the relation.
//
// A full Bloom join plan in UFL:
//
//	opgraph build disseminate broadcast {
//	    scan = Scan(table='s')
//	    bb   = BloomBuild(ns='q.bf', key='id')
//	    bb <- scan
//	}
//	opgraph probe disseminate broadcast {
//	    scan = Scan(table='r')
//	    bf   = BloomFilter(ns='q.bf', key='id', fetchdelay='4s')
//	    put  = Put(ns='q.rendezvous', key='id')
//	    bf <- scan
//	    put <- bf
//	}

// bloomBuildOp accumulates join keys and publishes the filter.
type bloomBuildOp struct {
	exec.In
	c       *chain
	ns      string
	keyCols []string
	filter  *bloom.Filter
	// Dropped counts tuples lacking the key columns.
	Dropped exec.Discarded
	shipped bool
}

func (c *chain) newBloomBuild(spec ufl.OpSpec) (*bloomBuildOp, error) {
	ns := spec.Arg("ns", "")
	keyCols := splitList(spec.Arg("key", ""))
	if ns == "" || len(keyCols) == 0 {
		return nil, fmt.Errorf("BloomBuild needs ns= and key=")
	}
	// The filter's size follows from expected and fp, and opgraphs arrive
	// from strangers: 2^20 keys at 1e-6 is under 4 MB, where unbounded
	// values let one small message ask a node for gigabytes.
	expected, err := strconv.Atoi(spec.Arg("expected", "1024"))
	if err != nil || expected <= 0 || expected > 1<<20 {
		return nil, fmt.Errorf("BloomBuild expected=: integer in [1, 2^20] required")
	}
	fp, err := strconv.ParseFloat(spec.Arg("fp", "0.01"), 64)
	if err != nil || (fp > 0 && fp < 1e-6) {
		return nil, fmt.Errorf("BloomBuild fp=: want a rate of at least 1e-6")
	}
	return &bloomBuildOp{
		c: c, ns: ns, keyCols: keyCols,
		filter: bloom.New(expected, fp),
	}, nil
}

func (b *bloomBuildOp) SetParent(exec.Sink) {}
func (b *bloomBuildOp) SetChild(c exec.Op)  { b.Adopt(b, c) }

// PushBatch folds every row's join key into the filter.
func (b *bloomBuildOp) PushBatch(_ exec.Tag, rows *tuple.Batch) {
	var t tuple.Tuple // scratch view: only the key string is kept
	for i, n := 0, rows.Len(); i < n; i++ {
		rows.RowInto(i, &t)
		key, ok := t.KeyString(b.keyCols...)
		if !ok {
			b.Dropped.Inc()
			continue
		}
		b.filter.AddString(key)
	}
}

// Flush publishes this node's filter into the rendezvous name. All
// nodes' filters share the DHT key "filter" and differ by suffix, so one
// Get retrieves them all for merging.
func (b *bloomBuildOp) Flush(tag exec.Tag) {
	b.In.Flush(tag)
	if b.shipped {
		return
	}
	b.shipped = true
	b.c.n.dht.Put(b.ns, "filter", b.c.n.uniquifier(), b.filter.Encode(), b.c.rq.timeout, nil)
}

// bloomFilterOp suppresses tuples whose join key is definitely absent
// from the other relation. Tuples arriving before the merged filter is
// available are buffered; after the fetch they drain through the filter.
type bloomFilterOp struct {
	exec.Base
	c       *chain
	ns      string
	keyCols []string

	filter  *bloom.Filter
	fetched bool
	buf     []bufTuple
	closed  bool
	// Passed and Suppressed count the filter's decisions.
	Passed     uint64
	Suppressed uint64
	Dropped    exec.Discarded
}

type bufTuple struct {
	tag exec.Tag
	t   *tuple.Tuple
}

func (c *chain) newBloomFilter(spec ufl.OpSpec) (*bloomFilterOp, error) {
	ns := spec.Arg("ns", "")
	keyCols := splitList(spec.Arg("key", ""))
	if ns == "" || len(keyCols) == 0 {
		return nil, fmt.Errorf("BloomFilter needs ns= and key=")
	}
	f := &bloomFilterOp{c: c, ns: ns, keyCols: keyCols}
	delay := spec.Arg("fetchdelay", "")
	if delay == "" {
		return nil, fmt.Errorf("BloomFilter needs fetchdelay= (when the build phase has published)")
	}
	d, err := time.ParseDuration(delay)
	if err != nil {
		return nil, fmt.Errorf("BloomFilter fetchdelay: %w", err)
	}
	c.timers = append(c.timers, c.n.rt.Schedule(d, f.fetch))
	return f, nil
}

func (f *bloomFilterOp) SetChild(c exec.Op) { f.Adopt(f, c) }

// fetch retrieves and merges every node's published filter. A stored
// object that fails to decode is counted (NodeStats.MalformedDrops) and
// skipped.
func (f *bloomFilterOp) fetch() {
	if f.closed {
		return
	}
	f.c.n.dht.Get(f.ns, "filter", func(objs []overlay.Object, err error) {
		if f.closed {
			return
		}
		var merged *bloom.Filter
		if err == nil {
			for _, o := range objs {
				bf, derr := bloom.Decode(o.Data)
				if derr != nil {
					f.c.n.malformedFrames.Inc()
					continue
				}
				if merged == nil {
					merged = bf
				} else if merged.Merge(bf) != nil {
					continue
				}
			}
		}
		// merged may be nil if no filters arrived: fail open (ship
		// everything) — a Bloom join must never lose results, only save
		// bandwidth.
		f.filter = merged
		f.fetched = true
		f.drainWith(merged)
	})
}

func (f *bloomFilterOp) drainWith(filter *bloom.Filter) {
	buf := f.buf
	f.buf = nil
	for _, item := range buf {
		f.forward(filter, item.tag, item.t)
	}
}

func (f *bloomFilterOp) forward(filter *bloom.Filter, tag exec.Tag, t *tuple.Tuple) {
	key, ok := t.KeyString(f.keyCols...)
	if !ok {
		f.Dropped.Inc()
		return
	}
	if filter != nil && !filter.MayContainString(key) {
		f.Suppressed++
		return
	}
	f.Passed++
	f.Emit(tag, tuple.OfTuple(t))
}

// PushBatch takes the batch's rows one at a time, in row order: held
// until the filter is fetched, then forwarded through it.
func (f *bloomFilterOp) PushBatch(tag exec.Tag, b *tuple.Batch) {
	for i, n := 0, b.Len(); i < n; i++ {
		if !f.fetched {
			f.buf = append(f.buf, bufTuple{tag, b.Row(i)})
			continue
		}
		f.forward(f.filter, tag, b.Row(i))
	}
}

func (f *bloomFilterOp) Flush(tag exec.Tag) {
	f.In.Flush(tag)
	// At query end, anything still buffered fails open.
	if !f.fetched {
		f.fetched = true
		f.drainWith(nil)
	}
}

func (f *bloomFilterOp) Close() {
	f.closed = true
	f.buf = nil
	f.In.Close()
}
