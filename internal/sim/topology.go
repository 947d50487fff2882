package sim

import (
	"math/rand"
	"sync"
	"time"

	"pier/internal/vri"
)

// Topology supplies pairwise propagation latency between nodes. The
// simulator supports the paper's two standard topology types: star and
// transit-stub (§3.1.4).
type Topology interface {
	// Register assigns a network location to a new node. It is called
	// once per node by Env.Spawn, always from driver context — never
	// concurrently with Latency calls from sharded workers.
	Register(addr vri.Addr)
	// Latency returns one-way propagation delay from a to b. Latency to
	// self is zero. Implementations must be deterministic for a given
	// seed and registration order, and safe for concurrent calls (the
	// scheduler queries latency from every worker shard).
	Latency(a, b vri.Addr) time.Duration
	// MinLatency returns a positive lower bound on Latency(a, b) for
	// any two distinct registered nodes. The scheduler uses it
	// as the conservative lookahead: no node can affect another sooner
	// than this bound, so events within one lookahead window are safe
	// to dispatch in parallel.
	MinLatency() time.Duration
}

// StarConfig parameterizes a Star topology.
type StarConfig struct {
	// MinAccess and MaxAccess bound each node's access-link latency to
	// the hub; a node's latency is drawn uniformly between them.
	MinAccess, MaxAccess time.Duration
	Seed                 int64
}

// Star models every node hanging off a central hub: the latency between
// two nodes is the sum of their access latencies. This approximates a
// population of DSL/cable hosts whose bottleneck is the last mile
// (§2.1.1).
type Star struct {
	cfg StarConfig
	rng *rand.Rand
	// mu serializes Register; Latency reads access without locking,
	// which is safe because registration happens in driver context and
	// the scheduler's window barriers order it against worker reads.
	mu     sync.Mutex
	access map[vri.Addr]time.Duration
}

// NewStar creates a star topology.
func NewStar(cfg StarConfig) *Star {
	if cfg.MinAccess <= 0 {
		cfg.MinAccess = 10 * time.Millisecond
	}
	if cfg.MaxAccess < cfg.MinAccess {
		cfg.MaxAccess = cfg.MinAccess
	}
	return &Star{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		access: make(map[vri.Addr]time.Duration),
	}
}

// Register draws the node's access latency.
func (s *Star) Register(addr vri.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.access[addr]; ok {
		return
	}
	span := s.cfg.MaxAccess - s.cfg.MinAccess
	d := s.cfg.MinAccess
	if span > 0 {
		d += time.Duration(s.rng.Int63n(int64(span)))
	}
	s.access[addr] = d
}

// Latency returns the hub-relayed delay between a and b.
func (s *Star) Latency(a, b vri.Addr) time.Duration {
	if a == b {
		return 0
	}
	return s.access[a] + s.access[b]
}

// MinLatency is twice the minimum access latency: both endpoints of any
// distinct pair pay at least one access hop.
func (s *Star) MinLatency() time.Duration { return 2 * s.cfg.MinAccess }

// TransitStubConfig parameterizes a TransitStub topology.
type TransitStubConfig struct {
	// TransitDomains is the number of backbone domains.
	TransitDomains int
	// RoutersPerTransit is the ring size within each transit domain.
	RoutersPerTransit int
	// StubsPerRouter is how many stub domains hang off each transit
	// router.
	StubsPerRouter int
	// IntraStub is the latency between two nodes in the same stub
	// domain.
	IntraStub time.Duration
	// StubUplink is the latency from a stub node to its transit router.
	StubUplink time.Duration
	// TransitHop is the per-hop latency between adjacent routers in a
	// transit-domain ring.
	TransitHop time.Duration
	// InterTransit is the latency between two transit domains.
	InterTransit time.Duration
	Seed         int64
}

func (c *TransitStubConfig) fill() {
	if c.TransitDomains <= 0 {
		c.TransitDomains = 4
	}
	if c.RoutersPerTransit <= 0 {
		c.RoutersPerTransit = 4
	}
	if c.StubsPerRouter <= 0 {
		c.StubsPerRouter = 3
	}
	if c.IntraStub <= 0 {
		c.IntraStub = 2 * time.Millisecond
	}
	if c.StubUplink <= 0 {
		c.StubUplink = 5 * time.Millisecond
	}
	if c.TransitHop <= 0 {
		c.TransitHop = 10 * time.Millisecond
	}
	if c.InterTransit <= 0 {
		c.InterTransit = 40 * time.Millisecond
	}
}

// tsLoc places a node: transit domain, router index within the domain's
// ring, and stub domain off that router.
type tsLoc struct {
	transit, router, stub int
}

// TransitStub models the classic GT-ITM transit-stub Internet topology:
// backbone transit domains arranged as rings of routers, with stub
// domains (edge networks) attached to each router. Latency between two
// nodes is the sum of the hops on the stub→transit→(inter-transit)→
// transit→stub path.
type TransitStub struct {
	cfg TransitStubConfig
	rng *rand.Rand
	// mu serializes Register; Latency reads loc without locking (see
	// Star for why that is safe).
	mu   sync.Mutex
	loc  map[vri.Addr]tsLoc
	next int
}

// NewTransitStub creates a transit-stub topology.
func NewTransitStub(cfg TransitStubConfig) *TransitStub {
	cfg.fill()
	return &TransitStub{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		loc: make(map[vri.Addr]tsLoc),
	}
}

// Register assigns the node to a stub domain. Assignment cycles through
// stub domains so populations stay balanced, with random perturbation so
// consecutive nodes are not always co-located.
func (t *TransitStub) Register(addr vri.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.loc[addr]; ok {
		return
	}
	c := t.cfg
	totalStubs := c.TransitDomains * c.RoutersPerTransit * c.StubsPerRouter
	// Mix of round-robin and random keeps domains balanced but unordered.
	idx := t.next
	t.next++
	if t.rng.Intn(4) == 0 {
		idx = t.rng.Intn(totalStubs)
	}
	idx %= totalStubs
	stub := idx % c.StubsPerRouter
	router := (idx / c.StubsPerRouter) % c.RoutersPerTransit
	transit := idx / (c.StubsPerRouter * c.RoutersPerTransit)
	t.loc[addr] = tsLoc{transit: transit, router: router, stub: stub}
}

// Latency computes the path delay between a and b.
func (t *TransitStub) Latency(a, b vri.Addr) time.Duration {
	if a == b {
		return 0
	}
	la, lb := t.loc[a], t.loc[b]
	c := t.cfg
	if la == lb {
		return c.IntraStub
	}
	// Both ends pay the stub uplink to reach their transit router.
	d := 2 * c.StubUplink
	if la.transit == lb.transit {
		d += time.Duration(ringDistance(la.router, lb.router, c.RoutersPerTransit)) * c.TransitHop
	} else {
		// Route to the domain gateway (router 0), cross the backbone,
		// and descend.
		d += time.Duration(ringDistance(la.router, 0, c.RoutersPerTransit)) * c.TransitHop
		d += c.InterTransit
		d += time.Duration(ringDistance(0, lb.router, c.RoutersPerTransit)) * c.TransitHop
	}
	return d
}

// MinLatency is the smallest delay any distinct pair can have: sharing
// one stub domain costs IntraStub, while neighbors in different stubs
// off the same router cost two stub uplinks — whichever is less.
func (t *TransitStub) MinLatency() time.Duration {
	if up := 2 * t.cfg.StubUplink; up < t.cfg.IntraStub {
		return up
	}
	return t.cfg.IntraStub
}

func ringDistance(i, j, n int) int {
	if n <= 1 {
		return 0
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}
