package overlay

import (
	"sort"
	"time"

	"pier/internal/vri"
	"pier/internal/wire"
)

// objectManager is the soft-state store of Figure 5 (§3.2.3). Each item
// lives for its publisher-chosen lifetime, capped by MaxLifetime, and is
// discarded when it expires; publishers keep items alive by renewing
// them. Expiry doubles as the system's garbage collector: if a publisher
// dies, its objects eventually vanish.
type objectManager struct {
	rt vri.Runtime
	// MaxLifetime protects the node from storing items whose publisher
	// failed long ago (§3.2.3).
	maxLifetime time.Duration

	// tables: namespace → key → suffix → stored object.
	tables map[string]map[string]map[string]*storedObject
	// nextExpiry is a lower bound on every stored expiry (zero: the store
	// is empty): until then a sweep would find nothing to discard, so it
	// does not walk. put, renew and restore lower it; a walk recomputes it.
	nextExpiry time.Time
	walks      int // sweeps that walked the store

	sweepEvery time.Duration
	sweepTimer vri.Timer
	stopped    bool
}

type storedObject struct {
	obj     Object
	expires time.Time
}

func newObjectManager(rt vri.Runtime, maxLifetime, sweepEvery time.Duration) *objectManager {
	if maxLifetime <= 0 {
		maxLifetime = 30 * time.Minute
	}
	if sweepEvery <= 0 {
		sweepEvery = time.Second
	}
	return &objectManager{
		rt:          rt,
		maxLifetime: maxLifetime,
		tables:      make(map[string]map[string]map[string]*storedObject),
		sweepEvery:  sweepEvery,
	}
}

func (m *objectManager) start() {
	var sweep func()
	sweep = func() {
		if m.stopped {
			return
		}
		m.sweep(m.rt.Now())
		m.sweepTimer = m.rt.Schedule(m.sweepEvery, sweep)
	}
	m.sweepTimer = m.rt.Schedule(m.sweepEvery, sweep)
}

func (m *objectManager) stop() {
	m.stopped = true
	if m.sweepTimer != nil {
		m.sweepTimer.Cancel()
	}
}

// clampLifetime applies the system-enforced maximum.
func (m *objectManager) clampLifetime(d time.Duration) time.Duration {
	if d <= 0 || d > m.maxLifetime {
		return m.maxLifetime
	}
	return d
}

// put stores (or overwrites) an object under its full three-part name.
func (m *objectManager) put(o Object) {
	m.insert(o, m.rt.Now().Add(m.clampLifetime(o.Lifetime)))
}

// insert stores (or overwrites) o to expire at expires.
func (m *objectManager) insert(o Object, expires time.Time) {
	keys := m.tables[o.Namespace]
	if keys == nil {
		keys = make(map[string]map[string]*storedObject)
		m.tables[o.Namespace] = keys
	}
	sfx := keys[o.Key]
	if sfx == nil {
		sfx = make(map[string]*storedObject)
		keys[o.Key] = sfx
	}
	sfx[o.Suffix] = &storedObject{obj: o, expires: expires}
	m.noteExpiry(expires)
}

// noteExpiry keeps nextExpiry a lower bound as an object comes to expire at t.
func (m *objectManager) noteExpiry(t time.Time) {
	if m.nextExpiry.IsZero() || t.Before(m.nextExpiry) {
		m.nextExpiry = t
	}
}

// get returns all live objects stored under (namespace, key), one per
// suffix, in suffix order. The canonical order matters for determinism:
// get responses feed operators whose emission order decides downstream
// message order, and the simulator's replay guarantee (same seed, any
// worker count → bit-identical results) cannot survive Go's randomized
// map iteration.
func (m *objectManager) get(ns, key string) []Object {
	now := m.rt.Now()
	sfx := m.tables[ns][key]
	suffixes := make([]string, 0, len(sfx))
	for s, so := range sfx {
		if so.expires.After(now) {
			suffixes = append(suffixes, s)
		}
	}
	sort.Strings(suffixes)
	var out []Object
	for _, s := range suffixes {
		out = append(out, sfx[s].obj)
	}
	return out
}

// renew extends an existing object's lifetime. It fails if the item is
// not present (expired, never stored here, or responsibility moved),
// which signals the publisher to re-put (§3.2.3).
func (m *objectManager) renew(ns, key, suffix string, lifetime time.Duration) bool {
	so := m.tables[ns][key][suffix]
	if so == nil || !so.expires.After(m.rt.Now()) {
		return false
	}
	so.expires = m.rt.Now().Add(m.clampLifetime(lifetime))
	m.noteExpiry(so.expires) // a renewal for less than the remaining life shortens it
	return true
}

// scan invokes fn for every live object in namespace until fn returns
// false, in (key, suffix) order. As with get, the canonical order keeps
// table scans — and therefore every dataflow they feed — deterministic
// across runs and scheduler modes.
func (m *objectManager) scan(ns string, fn func(Object) bool) {
	now := m.rt.Now()
	byKey := m.tables[ns]
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sfx := byKey[k]
		suffixes := make([]string, 0, len(sfx))
		for s, so := range sfx {
			if so.expires.After(now) {
				suffixes = append(suffixes, s)
			}
		}
		sort.Strings(suffixes)
		for _, s := range suffixes {
			if !fn(sfx[s].obj) {
				return
			}
		}
	}
}

// count returns the number of live objects in namespace.
func (m *objectManager) count(ns string) int {
	n := 0
	m.scan(ns, func(Object) bool { n++; return true })
	return n
}

// snapshot serializes every live object with its remaining lifetime
// relative to now. Rebasing expiries to durations is what lets a restore
// into a different virtual-clock origin re-anchor them exactly; an
// object whose expiry equals the checkpoint instant is already dead
// (get/scan use strict expires.After) and is excluded, so it cannot
// resurrect after restore. Objects are written in (namespace, key,
// suffix) order so checkpoint bytes are deterministic.
func (m *objectManager) snapshot(w *wire.Writer, now time.Time) {
	countPos := w.Len()
	w.U32(0) // patched below
	count := uint32(0)
	nss := make([]string, 0, len(m.tables))
	for ns := range m.tables {
		nss = append(nss, ns)
	}
	sort.Strings(nss)
	for _, ns := range nss {
		byKey := m.tables[ns]
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sfx := byKey[k]
			suffixes := make([]string, 0, len(sfx))
			for s, so := range sfx {
				if so.expires.After(now) {
					suffixes = append(suffixes, s)
				}
			}
			sort.Strings(suffixes)
			for _, s := range suffixes {
				so := sfx[s]
				appendObject(w, so.obj)
				w.Duration(so.expires.Sub(now))
				count++
			}
		}
	}
	w.PatchU32(countPos, count)
}

// restore installs a snapshot, re-anchoring each remaining lifetime at
// now. Lifetimes are installed exactly — not re-clamped — because the
// original put already applied MaxLifetime and the remainder can only be
// shorter. Entries whose remaining duration is non-positive are skipped:
// they expired at (or before) the checkpoint instant.
func (m *objectManager) restore(r *wire.Reader, now time.Time) error {
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		o := readObject(r)
		remaining := r.Duration()
		if r.Err() != nil {
			break
		}
		if remaining > 0 {
			m.insert(o, now.Add(remaining))
		}
	}
	return r.Err()
}

// sweep discards expired objects and empty index levels. Before nextExpiry
// nothing has expired, so it returns without walking; reads never depend on
// when it walks, because they skip expired objects themselves.
func (m *objectManager) sweep(now time.Time) {
	if m.nextExpiry.IsZero() || now.Before(m.nextExpiry) {
		return
	}
	m.walks++
	m.nextExpiry = time.Time{}
	for ns, keys := range m.tables {
		for key, sfx := range keys {
			for suffix, so := range sfx {
				if !so.expires.After(now) {
					delete(sfx, suffix)
				} else {
					m.noteExpiry(so.expires)
				}
			}
			if len(sfx) == 0 {
				delete(keys, key)
			}
		}
		if len(keys) == 0 {
			delete(m.tables, ns)
		}
	}
}
