// Package gnutella implements a Gnutella-style flooding search overlay —
// the baseline system PIER was measured against in the paper's
// filesharing study (Figure 1, [41], [43]).
//
// Gnutella circa 2004: peers form an unstructured random graph; each
// peer holds a local keyword index of its own shared files; a query
// floods outward with a TTL, every peer matching it against its local
// index and returning hits directly to the query's origin. Flooding
// finds widely replicated ("popular") content within a couple of hops,
// but rare items — replicated on a handful of peers — are likely to sit
// outside the TTL horizon, so rare queries return few or no results, and
// slowly. That asymmetry is exactly what PIER's DHT-indexed search
// removes, and what the Figure 1 benchmark reproduces.
package gnutella

import (
	"fmt"
	"sort"
	"strings"

	"pier/internal/vri"
	"pier/internal/wire"
)

// Port is the gnutella protocol port within a node.
const Port vri.Port = 9

// Message kinds.
const (
	msgQuery = iota + 1
	msgHit
)

// Config parameterizes a peer.
type Config struct {
	// DefaultTTL bounds flooding depth. Gnutella's classic default is 7.
	DefaultTTL int
}

func (c *Config) fill() {
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 7
	}
}

// maxResultsPerPeer caps hits one peer returns per query.
const maxResultsPerPeer = 50

// Hit is one search result.
type Hit struct {
	File string
	Peer vri.Addr
}

// Peer is one Gnutella node.
type Peer struct {
	rt  vri.Runtime
	cfg Config

	neighbors []vri.Addr
	// index maps keyword → file names shared locally.
	index map[string][]string
	// seen deduplicates flooded queries.
	seen map[string]struct{}
	// pending holds this peer's own outstanding searches.
	pending  map[string]func(Hit)
	querySeq uint64

	// Stats.
	msgsForwarded uint64
	queriesSeen   uint64
}

// NewPeer creates a peer and binds its protocol port.
func NewPeer(rt vri.Runtime, cfg Config) (*Peer, error) {
	cfg.fill()
	p := &Peer{
		rt:      rt,
		cfg:     cfg,
		index:   make(map[string][]string),
		seen:    make(map[string]struct{}),
		pending: make(map[string]func(Hit)),
	}
	if err := rt.Listen(Port, p.handle); err != nil {
		return nil, err
	}
	return p, nil
}

// Close releases the protocol port.
func (p *Peer) Close() { p.rt.Release(Port) }

// AddNeighbor wires a (directed) overlay edge; call symmetrically for
// the usual undirected topology.
func (p *Peer) AddNeighbor(addr vri.Addr) {
	if addr == p.rt.Addr() {
		return
	}
	for _, n := range p.neighbors {
		if n == addr {
			return
		}
	}
	p.neighbors = append(p.neighbors, addr)
}

// Neighbors returns the peer's current neighbor set.
func (p *Peer) Neighbors() []vri.Addr { return p.neighbors }

// Share adds a file under its keywords to the local index.
func (p *Peer) Share(file string, keywords []string) {
	for _, kw := range keywords {
		kw = strings.ToLower(kw)
		p.index[kw] = append(p.index[kw], file)
	}
}

// Stats reports (queries seen, messages forwarded).
func (p *Peer) Stats() (seen, forwarded uint64) { return p.queriesSeen, p.msgsForwarded }

// Search floods a keyword query (AND semantics over keywords) with the
// default TTL. onHit fires for every result; Gnutella gives no
// completion signal — the caller times out, just like real clients.
func (p *Peer) Search(keywords []string, onHit func(Hit)) string {
	return p.SearchTTL(keywords, p.cfg.DefaultTTL, onHit)
}

// SearchTTL floods with an explicit TTL.
func (p *Peer) SearchTTL(keywords []string, ttl int, onHit func(Hit)) string {
	p.querySeq++
	id := fmt.Sprintf("%s#%d", p.rt.Addr(), p.querySeq)
	p.pending[id] = onHit
	p.seen[id] = struct{}{}
	// Match locally first (a real servent searches its own share).
	for _, f := range p.match(keywords) {
		if onHit != nil {
			onHit(Hit{File: f, Peer: p.rt.Addr()})
		}
	}
	p.flood(id, keywords, ttl, p.rt.Addr(), "")
	return id
}

// Cancel forgets an outstanding search.
func (p *Peer) Cancel(id string) { delete(p.pending, id) }

// match returns local files carrying every queried keyword, in name
// order. The canonical order matters twice: the per-peer result cap must
// select the same files every run, and hit-message payloads must be
// byte-identical for the simulator's deterministic-replay guarantee —
// both of which Go's randomized map iteration would break.
func (p *Peer) match(keywords []string) []string {
	if len(keywords) == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, kw := range keywords {
		for _, f := range p.index[strings.ToLower(kw)] {
			counts[f]++
		}
	}
	var out []string
	for f, c := range counts {
		if c >= len(keywords) {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	if len(out) > maxResultsPerPeer {
		out = out[:maxResultsPerPeer]
	}
	return out
}

func encodeQuery(id string, keywords []string, ttl int, origin vri.Addr) []byte {
	w := wire.NewWriter(64)
	w.U8(msgQuery)
	w.String(id)
	w.U16(uint16(ttl))
	w.String(string(origin))
	w.U16(uint16(len(keywords)))
	for _, kw := range keywords {
		w.String(kw)
	}
	return w.Bytes()
}

// flood forwards the query to every neighbor except the one it came
// from.
func (p *Peer) flood(id string, keywords []string, ttl int, origin, from vri.Addr) {
	if ttl <= 0 {
		return
	}
	payload := encodeQuery(id, keywords, ttl-1, origin)
	for _, n := range p.neighbors {
		if n == from {
			continue
		}
		p.msgsForwarded++
		p.rt.Send(n, Port, payload, nil)
	}
}

func (p *Peer) handle(src vri.Addr, payload []byte) {
	r := wire.NewReader(payload)
	switch r.U8() {
	case msgQuery:
		id := r.String()
		ttl := int(r.U16())
		origin := vri.Addr(r.String())
		nk := int(r.U16())
		keywords := make([]string, 0, nk)
		for i := 0; i < nk && r.Err() == nil; i++ {
			keywords = append(keywords, r.String())
		}
		if r.Err() != nil {
			return
		}
		if _, dup := p.seen[id]; dup {
			return
		}
		p.seen[id] = struct{}{}
		p.queriesSeen++
		// Reply with local hits directly to the origin.
		if hits := p.match(keywords); len(hits) > 0 {
			w := wire.NewWriter(64)
			w.U8(msgHit)
			w.String(id)
			w.U16(uint16(len(hits)))
			for _, f := range hits {
				w.String(f)
			}
			p.rt.Send(origin, Port, w.Bytes(), nil)
		}
		p.flood(id, keywords, ttl, origin, src)

	case msgHit:
		id := r.String()
		n := int(r.U16())
		files := make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			files = append(files, r.String())
		}
		if r.Err() != nil {
			return
		}
		onHit := p.pending[id]
		if onHit == nil {
			return
		}
		for _, f := range files {
			onHit(Hit{File: f, Peer: src})
		}
	}
}

// WireRandomGraph connects peers into a connected random graph with
// average degree roughly degree: a ring (guaranteeing connectivity) plus
// random chords, the standard Gnutella-like topology used in p2p search
// studies.
func WireRandomGraph(peers []*Peer, degree int, rnd interface{ Intn(int) int }) {
	n := len(peers)
	if n < 2 {
		return
	}
	for i, p := range peers {
		next := peers[(i+1)%n]
		p.AddNeighbor(next.rt.Addr())
		next.AddNeighbor(p.rt.Addr())
	}
	extra := degree - 2
	for i, p := range peers {
		for e := 0; e < extra; e++ {
			j := rnd.Intn(n)
			if j == i {
				continue
			}
			p.AddNeighbor(peers[j].rt.Addr())
			peers[j].AddNeighbor(p.rt.Addr())
		}
	}
}
