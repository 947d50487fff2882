// Package pht implements the Prefix Hash Tree, PIER's range-predicate
// index (paper §3.3.3 and [59]): a resilient distributed trie mapped onto
// the DHT. Trie nodes are addressed by their binary prefix label — the
// DHT key "01101" names the trie node covering all keys with that prefix
// — so the structure needs no pointers, inherits the DHT's resilience,
// and reuses the DHT rather than requiring a separate distributed
// mechanism (the property the paper favors PHT for over Mercury/P-trees,
// §5.3).
//
// Each trie node is a bag of DHT objects under namespace=index,
// key=label: a "meta" object marking the node internal, plus one object
// per stored item at leaves. Internal markers form a contiguous chain
// from the root (every ancestor of an internal node is internal), so
// "is this prefix internal?" is monotone in prefix length and the leaf
// for a key is found by *binary search on prefix length* — the PHT
// paper's O(log log |keyspace|) lookup — rather than a linear descent.
//
// Leaves split when they exceed the bucket capacity. A split jumps
// directly to the first depth at which the leaf's items diverge, writing
// the whole chain of internal markers in parallel, so clustered keys
// (e.g. small integers, which share ~50 leading bits) cost one bounded
// split rather than a per-level cascade. Items at a just-split node
// remain readable until their soft state expires; readers deduplicate by
// suffix, the soft-state trick the PHT design leans on.
package pht

import (
	"errors"
	"fmt"
	"time"

	"pier/internal/overlay"
	"pier/internal/wire"
)

// Key is a 64-bit point in the PHT's ordered key space. Use EncodeInt or
// EncodeString to map application values order-preservingly onto Keys.
type Key uint64

// EncodeInt maps an int64 onto a Key preserving order: the sign bit is
// flipped so negative values sort before positive ones.
func EncodeInt(v int64) Key { return Key(uint64(v) ^ (1 << 63)) }

// DecodeInt inverts EncodeInt.
func DecodeInt(k Key) int64 { return int64(uint64(k) ^ (1 << 63)) }

// EncodeString maps a string's first 8 bytes onto a Key, preserving the
// order of strings that differ within that prefix.
func EncodeString(s string) Key {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return Key(k)
}

// bit returns key's i'th most significant bit as '0' or '1'.
func (k Key) bit(i int) byte {
	if k&(1<<(63-uint(i))) != 0 {
		return '1'
	}
	return '0'
}

// prefix returns the label of the length-n trie node containing k.
func (k Key) prefix(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = k.bit(i)
	}
	return string(b)
}

// Item is one indexed entry: its point in the key space, the unique
// suffix it was inserted under, and its opaque payload.
type Item struct {
	Key    Key
	Suffix string
	Data   []byte
}

// Config parameterizes a PHT client.
type Config struct {
	// Index is the DHT namespace holding this PHT's trie nodes.
	Index string
	// Bucket is the leaf capacity before a split. Default 8.
	Bucket int
	// Lifetime is the soft-state lifetime for items and node markers;
	// the index's publisher must renew or re-insert. Default 10m.
	Lifetime time.Duration
}

// maxDepth bounds trie depth: a key has 64 bits.
const maxDepth = 64

// PHT is a client handle for one distributed prefix hash tree. Any node
// in the overlay can instantiate a handle on the same Index and see the
// same trie.
type PHT struct {
	dht *overlay.DHT
	cfg Config
}

// ErrDepthExhausted is reported when items cannot be separated within the
// trie depth; callers may still proceed (the leaf simply overflows).
var ErrDepthExhausted = errors.New("pht: trie depth exhausted")

// New creates a PHT handle over dht.
func New(dht *overlay.DHT, cfg Config) *PHT {
	if cfg.Index == "" {
		cfg.Index = "pht"
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = 8
	}
	if cfg.Lifetime <= 0 {
		cfg.Lifetime = 10 * time.Minute
	}
	return &PHT{dht: dht, cfg: cfg}
}

const metaSuffix = "\x00meta"

func encodeItem(k Key, payload []byte) []byte {
	w := wire.NewWriter(12 + len(payload))
	w.U64(uint64(k))
	w.Bytes32(payload)
	return w.Bytes()
}

func decodeItem(o overlay.Object) (Item, bool) {
	r := wire.NewReader(o.Data)
	k := Key(r.U64())
	payload := append([]byte(nil), r.Bytes32()...)
	if r.Err() != nil {
		return Item{}, false
	}
	return Item{Key: k, Suffix: o.Suffix, Data: payload}, true
}

// node is the decoded state of one trie node.
type node struct {
	internal bool
	items    []Item
}

// readNode fetches and decodes the trie node with the given label.
func (p *PHT) readNode(label string, done func(node, error)) {
	p.dht.Get(p.cfg.Index, label, func(objs []overlay.Object, err error) {
		if err != nil {
			done(node{}, err)
			return
		}
		var n node
		for _, o := range objs {
			if o.Suffix == metaSuffix {
				n.internal = string(o.Data) == "internal"
				continue
			}
			if it, ok := decodeItem(o); ok {
				n.items = append(n.items, it)
			}
		}
		done(n, nil)
	})
}

// findLeaf locates the leaf covering key: the smallest depth whose node
// is not marked internal. Internal markers are contiguous from the root,
// making the predicate monotone in depth, so the search gallops (probe
// depths 0, 1, 2, 4, ...) to bracket the leaf and then binary-searches
// the bracket — one probe for a shallow trie, O(log depth) in general,
// the PHT paper's lookup strategy.
func (p *PHT) findLeaf(key Key, done func(depth int, leaf node, err error)) {
	var binSearch func(lo, hi int)
	binSearch = func(lo, hi int) {
		if lo >= hi {
			p.readNode(key.prefix(lo), func(n node, err error) { done(lo, n, err) })
			return
		}
		mid := (lo + hi) / 2
		p.readNode(key.prefix(mid), func(n node, err error) {
			if err != nil {
				done(0, node{}, err)
				return
			}
			if n.internal {
				binSearch(mid+1, hi)
			} else {
				binSearch(lo, mid)
			}
		})
	}
	var gallop func(lo, d, step int)
	gallop = func(lo, d, step int) {
		if d >= maxDepth {
			binSearch(lo, maxDepth)
			return
		}
		p.readNode(key.prefix(d), func(n node, err error) {
			if err != nil {
				done(0, node{}, err)
				return
			}
			if !n.internal {
				if d == lo {
					done(d, n, nil) // bracket is exact: this is the leaf
					return
				}
				binSearch(lo, d)
				return
			}
			gallop(d+1, d+step, step*2)
		})
	}
	gallop(0, 0, 1)
}

// Insert stores (key, suffix, data) in the index. done (optional)
// receives nil on success. The item carries the PHT's soft-state
// lifetime; keeping it alive longer is the inserter's responsibility,
// like all PIER storage.
func (p *PHT) Insert(key Key, suffix string, data []byte, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	p.findLeaf(key, func(depth int, leaf node, err error) {
		if err != nil {
			done(err)
			return
		}
		label := key.prefix(depth)
		p.dht.Put(p.cfg.Index, label, suffix, encodeItem(key, data), p.cfg.Lifetime, func(ok bool) {
			if !ok {
				done(fmt.Errorf("pht: put at %q failed", label))
				return
			}
			items := append(leaf.items, Item{Key: key, Suffix: suffix, Data: data})
			items = dedupItems(items)
			if len(items) <= p.cfg.Bucket || depth >= maxDepth {
				done(nil)
				return
			}
			p.split(items, depth, done)
		})
	})
}

// split separates an overflowing leaf's items. It finds the first depth
// at which the items diverge, writes the internal-marker chain for every
// level from the old leaf down to that depth in parallel, then re-puts
// each item at its side of the divergence. Each side may recurse if it
// still overflows. Old copies at the former leaf are left to expire.
func (p *PHT) split(items []Item, depth int, done func(error)) {
	// Find the divergence depth D: first bit index >= depth where the
	// items disagree.
	d := depth
	for d < maxDepth {
		b := items[0].Key.bit(d)
		diverges := false
		for _, it := range items[1:] {
			if it.Key.bit(d) != b {
				diverges = true
				break
			}
		}
		if diverges {
			break
		}
		d++
	}
	if d >= maxDepth {
		// Identical keys to full depth: the leaf just overflows; the
		// bucket bound is best-effort.
		done(nil)
		return
	}

	var firstErr error
	pending := 0
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending == 0 {
			done(firstErr)
		}
	}

	// Internal markers for depths depth..d (the chain through the shared
	// bits plus the diverging node itself); all in parallel.
	shared := items[0].Key
	for l := depth; l <= d; l++ {
		pending++
		label := shared.prefix(l)
		p.dht.Put(p.cfg.Index, label, metaSuffix, []byte("internal"), p.cfg.Lifetime, func(ok bool) {
			if ok {
				finish(nil)
			} else {
				finish(fmt.Errorf("pht: marking %q internal failed", label))
			}
		})
	}

	// Partition by bit d into the two depth-(d+1) children.
	var zeros, ones []Item
	for _, it := range items {
		if it.Key.bit(d) == '0' {
			zeros = append(zeros, it)
		} else {
			ones = append(ones, it)
		}
	}
	for _, group := range [][]Item{zeros, ones} {
		group := group
		if len(group) == 0 {
			continue
		}
		pending++
		p.placeGroup(group, d+1, finish)
	}
}

// placeGroup stores a set of same-prefix items at depth, recursing into a
// further split if the group itself overflows.
func (p *PHT) placeGroup(items []Item, depth int, done func(error)) {
	var firstErr error
	pending := len(items)
	for _, it := range items {
		it := it
		label := it.Key.prefix(depth)
		p.dht.Put(p.cfg.Index, label, it.Suffix, encodeItem(it.Key, it.Data), p.cfg.Lifetime, func(ok bool) {
			if !ok && firstErr == nil {
				firstErr = fmt.Errorf("pht: put at %q failed", label)
			}
			pending--
			if pending == 0 {
				if firstErr != nil || len(items) <= p.cfg.Bucket || depth >= maxDepth {
					done(firstErr)
					return
				}
				p.split(items, depth, done)
			}
		})
	}
}

// dedupItems keeps the first occurrence of each suffix.
func dedupItems(items []Item) []Item {
	seen := make(map[string]struct{}, len(items))
	out := items[:0]
	for _, it := range items {
		if _, dup := seen[it.Suffix]; dup {
			continue
		}
		seen[it.Suffix] = struct{}{}
		out = append(out, it)
	}
	return out
}

// Lookup returns all items stored exactly at key. Fresh data always
// lives at the key's leaf, so a single binary-search descent suffices.
func (p *PHT) Lookup(key Key, done func([]Item, error)) {
	p.findLeaf(key, func(_ int, leaf node, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		var out []Item
		for _, it := range leaf.items {
			if it.Key == key {
				out = append(out, it)
			}
		}
		done(dedupItems(out), nil)
	})
}

// Range collects every item with lo <= key <= hi by walking the subtrie
// whose prefixes intersect the interval, deduplicating pre-split
// leftovers by suffix. done receives the items in unspecified order (PIER
// uses no distributed sort-based operators).
func (p *PHT) Range(lo, hi Key, done func([]Item, error)) {
	if hi < lo {
		done(nil, nil)
		return
	}
	var out []Item
	var firstErr error
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			if firstErr != nil {
				done(nil, firstErr)
			} else {
				done(dedupItems(out), nil)
			}
		}
	}
	var visit func(label string, min, max Key)
	visit = func(label string, min, max Key) {
		// Prune subtries outside the interval.
		if max < lo || min > hi {
			finish()
			return
		}
		p.readNode(label, func(n node, err error) {
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				finish()
				return
			}
			for _, it := range n.items {
				if it.Key >= lo && it.Key <= hi {
					out = append(out, it)
				}
			}
			if n.internal && len(label) < maxDepth {
				mid := min + (max-min)/2
				pending += 2
				visit(label+"0", min, mid)
				visit(label+"1", mid+1, max)
			}
			finish()
		})
	}
	visit("", 0, ^Key(0))
}

// Stats walks the trie and reports (leaves, internals, items) — a
// diagnostic for tests and tooling. Leaves counts only non-empty or
// root-level leaf positions actually probed.
func (p *PHT) Stats(done func(leaves, internals, items int, err error)) {
	var leaves, internals, items int
	var firstErr error
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			done(leaves, internals, items, firstErr)
		}
	}
	var visit func(label string)
	visit = func(label string) {
		p.readNode(label, func(n node, err error) {
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				finish()
				return
			}
			items += len(n.items)
			if n.internal && len(label) < maxDepth {
				internals++
				pending += 2
				visit(label + "0")
				visit(label + "1")
			} else {
				leaves++
			}
			finish()
		})
	}
	visit("")
}
