// Package qp implements PIER's query processor (paper §3.3): the life of
// a query from proxy to dissemination to distributed execution.
//
// Every PIER node runs the same stack: the DHT overlay below, and above
// it this query processor, which
//
//   - maintains the distribution tree used as the true-predicate index
//     (tree.go, §3.3.3),
//   - disseminates opgraphs to the nodes that must run them (dissem
//     logic in this file, §3.3.3),
//   - instantiates arriving opgraphs into local dataflows (instantiate.go,
//     §3.3.4–3.3.5),
//   - runs network-facing operators — DHT scans, rehash (Put), Fetch
//     Matches index joins, hierarchical aggregation (netops.go, §3.3.4,
//     §3.3.6),
//   - acts as a proxy for clients: any node accepts a query, forwards it,
//     and returns results to the client (§3.3.2).
//
// Execution is bounded by timeouts rather than EOFs (§3.3.2): each node
// executes an opgraph until the query's timeout expires, which serves
// both snapshot and continuous queries.
package qp

import (
	"fmt"
	"sort"
	"time"

	"pier/internal/exec"
	"pier/internal/overlay"
	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// Config parameterizes a PIER node.
type Config struct {
	// DHT configures the overlay underneath the query processor.
	DHT overlay.Config
	// TreeRootKey names the well-known root identifier of the query
	// distribution tree, hard-coded across the deployment (§3.3.3).
	TreeRootKey string
	// TreeRefresh is the soft-state refresh period for tree membership.
	// Default 5s.
	TreeRefresh time.Duration
	// TreeChildTTL is how long a recorded child survives without
	// refresh. Default 3×TreeRefresh.
	TreeChildTTL time.Duration
	// NumTrees is how many redundant distribution trees to maintain,
	// the paper's §3.3.3 reliability knob: each tree gets a distinct
	// root key (TreeRootKey, TreeRootKey#1, …) and therefore a distinct
	// shape, and every broadcast travels once per tree under one shared
	// execution id, so a failure that severs one tree's subtree is
	// covered by the others. Deliveries are deduped by the node-level
	// seen set; execution cost is unchanged, dissemination traffic
	// scales with NumTrees. Default 1; values above 8 are clamped.
	NumTrees int
	// DoneGrace is how long after a query's timeout the proxy waits for
	// straggler results before reporting completion. Default 2s.
	DoneGrace time.Duration
	// MaxQueriesPerMinute rate-limits query admission per client id
	// (§4.1.2); 0 disables limiting.
	MaxQueriesPerMinute int
	// MaxLiveGraphs caps the opgraphs concurrently executing at this
	// node (admission control for multi-query overload): an arriving
	// opgraph beyond the cap is refused and an explicit reject ack goes
	// back to the query's proxy, so saturation degrades predictably
	// instead of exhausting memory. 0 disables the cap.
	MaxLiveGraphs int
	// MaxGraphsPerClient caps the opgraphs concurrently executing at this
	// node PER CLIENT id (§4.1.2 graduated to the executor side): one
	// client flooding queries is refused — with the same explicit reject
	// ack — while other clients' admissions are untouched, where the
	// whole-node MaxLiveGraphs cap would let the flood starve everyone.
	// Unattributed graphs (empty client id) are exempt, so anonymous
	// traffic does not collapse into one shared bucket. 0 disables.
	MaxGraphsPerClient int
	// DissemBatchWindow is how long a proxy holds broadcast opgraph
	// dissemination so queries submitted close together ride ONE
	// distribution-tree frame (the ufl batch codec) instead of paying a
	// full tree broadcast each. Default 10ms.
	DissemBatchWindow time.Duration
}

func (c *Config) fill() {
	if c.TreeRootKey == "" {
		c.TreeRootKey = "!pier-tree-root"
	}
	if c.TreeRefresh <= 0 {
		c.TreeRefresh = 5 * time.Second
	}
	if c.TreeChildTTL <= 0 {
		c.TreeChildTTL = 3 * c.TreeRefresh
	}
	if c.NumTrees <= 0 {
		c.NumTrees = 1
	}
	if c.NumTrees > maxTrees {
		c.NumTrees = maxTrees
	}
	if c.DoneGrace <= 0 {
		c.DoneGrace = 2 * time.Second
	}
	if c.DissemBatchWindow <= 0 {
		c.DissemBatchWindow = 10 * time.Millisecond
	}
}

// Node is one PIER participant: overlay member, query executor, and
// potential proxy for clients.
type Node struct {
	rt  vri.Runtime
	cfg Config
	dht *overlay.DHT

	trees *distTrees

	// running holds the opgraphs this node is currently executing, keyed
	// by query id.
	running map[string]*runningQuery
	// proxied holds the queries for which this node is the proxy.
	proxied map[string]*proxyState

	// bus shares newData subscriptions (and the per-arrival decode)
	// across every query scanning a table at this node.
	bus *tableBus
	// wheel coalesces same-period flush timers onto one timer per node.
	wheel *flushWheel
	// subtrees caches the chains queries may share (subtree.go), keyed by
	// the chain top's structural subtree signature.
	subtrees map[uint64]*chain
	// liveGraphs counts opgraphs currently executing — the quantity the
	// MaxLiveGraphs admission cap bounds.
	liveGraphs int
	// clientLive counts live graphs per client id — the ledger the
	// MaxGraphsPerClient quota charges against. Entries are deleted at
	// zero, so a non-empty map after full teardown is a leak.
	clientLive map[string]int
	// clientRejects breaks quota refusals down per client (cumulative).
	clientRejects map[string]uint64

	// Proxy-side dissemination batching: broadcast opgraphs submitted
	// within DissemBatchWindow accumulate here and ride one tree frame.
	pendingBatch []ufl.BatchEntry
	batchTimer   vri.Timer
	batchFn      func() // pre-bound flush closure

	limiter *rateLimiter

	// retryPool recycles resultRetry states (backoff.go); pendingSends
	// is the number currently in flight (awaiting an ack or a retry
	// timer) — nonzero after teardown plus grace is a leak.
	retryPool    []*resultRetry
	pendingSends int

	// resultFrame holds the encoded rows of the batch resultFrameOf, the
	// last one framed into a result message: every message of one fan-out
	// carries the same window, so it is encoded once. The writer is reused
	// across windows; a closing chain drops the memo (chain.close).
	resultFrame   *wire.Writer
	resultFrameOf *tuple.Batch
	// open holds the result messages of the fan-out in progress, all
	// carrying the batch openOf, one per proxy in first-seen (attach)
	// order, indexed by openAt; fanning is the demux dispatch depth, and
	// they are sent when it returns to zero (forwardResult). Entries are
	// reused; between fan-outs they are empty.
	open    []openResult
	openOf  *tuple.Batch
	openAt  map[vri.Addr]int
	fanning int

	// admitBatch, when non-nil, redirects admit acks into a per-proxy
	// collection instead of sending them one by one: the batch
	// dissemination handler sets it around its accept loop so all
	// admits for one frame ride one qmAdmit frame back.
	admitBatch map[vri.Addr][]string

	// tagCounter issues node-local dataflow tags (see instantiate).
	tagCounter exec.Tag

	// scratch is the node's reusable encode buffer for messages that are
	// handed to Send synchronously (result forwarding, tree fan-out).
	// Send consumes payloads before returning, so the buffer is free for
	// the next encode; bytes that must survive an asynchronous boundary
	// (dissemination payloads held across lookups) use their own Writer.
	scratch *wire.Writer

	started bool
	// Stats.
	graphsExecuted uint64
	resultsSent    uint64
	graphsRejected uint64 // executor side: opgraphs refused by the caps
	rejectAcks     uint64 // proxy side: reject acks received
	batchFrames    uint64 // dissemination batch frames this proxy sent
	batchedGraphs  uint64 // opgraphs carried inside those frames
	// Subtree-sharing counters (subtree.go).
	subtreeBuilds      uint64 // shared chains built (cache misses)
	subtreeHits        uint64 // attachments resolved to an existing chain
	sharedFanout       uint64 // demux deliveries to per-query tails
	chainFeeds         uint64 // arrivals delivered into operator chains (bus.go)
	chainPushes        uint64 // bus PushBatch calls into operator chains (bus.go)
	catchUpObjects     uint64 // stored objects catch-up reads decoded (netops.go)
	clientQuotaRejects uint64 // refusals under MaxGraphsPerClient
	sendRetries        uint64 // nack-driven retransmissions (backoff.go)
	sendExhausted      uint64 // payloads abandoned after the retry budget
	// malformedFrames counts tuple frames that failed to decode here:
	// stored objects dropped by catch-up LocalScans and result messages
	// dropped at the proxy (the newData-path twin lives in the overlay
	// registry).
	malformedFrames exec.Discarded
}

// runningQuery is the executor-side state of one query at this node.
type runningQuery struct {
	id      string
	proxy   vri.Addr
	timeout time.Duration
	graphs  []*liveGraph
	timer   vri.Timer
	// admitted records that this node already acked its admission of
	// the query to the proxy — once per (query, node), however many of
	// the query's opgraphs land here.
	admitted bool
}

// proxyState is the proxy-side state of one submitted query.
type proxyState struct {
	id       string
	onResult func(*tuple.Tuple)
	onDone   func()
	timer    vri.Timer
	results  uint64
	// onReject, if set, runs once per admission-reject ack received for
	// this query, so callers can tell a partially-admitted query from a
	// fully-running one.
	onReject func()
	// admits counts executor nodes that acked admission of at least one
	// of the query's opgraphs; contributors are the distinct executor
	// nodes that delivered at least one result row. Their ratio is the
	// query's completeness (see ResultSet.Completeness).
	admits       uint64
	contributors map[vri.Addr]struct{}
	// onFinal, if set, receives the completeness tallies when the
	// done-grace timer fires, just before onDone.
	onFinal func(admitted, contributed int)
}

// NewNode creates a PIER node bound to the runtime.
func NewNode(rt vri.Runtime, cfg Config) *Node {
	cfg.fill()
	n := &Node{
		rt:          rt,
		cfg:         cfg,
		dht:         overlay.New(rt, cfg.DHT),
		running:     make(map[string]*runningQuery),
		proxied:     make(map[string]*proxyState),
		subtrees:    make(map[uint64]*chain),
		clientLive:  make(map[string]int),
		limiter:     newRateLimiter(rt, cfg.MaxQueriesPerMinute),
		scratch:     wire.NewWriter(256),
		resultFrame: wire.NewWriter(256),
		openAt:      make(map[vri.Addr]int),
	}
	n.bus = newTableBus(n)
	n.wheel = newFlushWheel(n)
	n.batchFn = n.flushDissemBatch
	n.trees = newDistTrees(n)
	return n
}

// SetMaxLiveGraphs adjusts the admission-control cap at runtime (driver
// context or this node's events only — it is plain per-node state). 0
// disables the cap.
func (n *Node) SetMaxLiveGraphs(max int) { n.cfg.MaxLiveGraphs = max }

// SetMaxGraphsPerClient adjusts the per-client quota at runtime (same
// driver-context discipline as SetMaxLiveGraphs). 0 disables it.
func (n *Node) SetMaxGraphsPerClient(max int) { n.cfg.MaxGraphsPerClient = max }

// Start brings up the overlay, binds the query port, and begins
// distribution-tree maintenance.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("qp: node already started")
	}
	if err := n.dht.Start(); err != nil {
		return err
	}
	if err := n.rt.Listen(vri.PortQuery, n.handleMessage); err != nil {
		n.dht.Stop()
		return err
	}
	n.trees.start()
	n.started = true
	return nil
}

// Join bootstraps the overlay through any existing PIER node.
func (n *Node) Join(bootstrap vri.Addr, done func(error)) {
	n.dht.Join(bootstrap, done)
}

// Stop halts query execution and the overlay.
func (n *Node) Stop() {
	if !n.started {
		return
	}
	// Finishing sends final windows: in id order, never in map order.
	rqs := make([]*runningQuery, 0, len(n.running))
	for _, rq := range n.running {
		rqs = append(rqs, rq)
	}
	sort.Slice(rqs, func(i, j int) bool { return rqs[i].id < rqs[j].id })
	for _, rq := range rqs {
		n.finishQuery(rq)
	}
	if n.batchTimer != nil {
		n.batchTimer.Cancel()
		n.batchTimer = nil
		n.pendingBatch = nil
	}
	n.trees.stop()
	n.rt.Release(vri.PortQuery)
	n.dht.Stop()
	n.started = false
}

// Addr returns this node's network address.
func (n *Node) Addr() vri.Addr { return n.rt.Addr() }

// DHT exposes the overlay for applications and tests.
func (n *Node) DHT() *overlay.DHT { return n.dht }

// Runtime exposes the node's runtime binding.
func (n *Node) Runtime() vri.Runtime { return n.rt }

// NodeStats is a snapshot of a node's query-runtime counters — the
// observability surface of the multi-tenant runtime (live population,
// shared-subscription health, overload and malformed-input accounting).
type NodeStats struct {
	// GraphsExecuted counts opgraphs ever instantiated and run here.
	GraphsExecuted uint64
	// ResultsSent counts result tuples forwarded toward proxies.
	ResultsSent uint64
	// LiveGraphs is the number of opgraphs currently executing.
	LiveGraphs int
	// Subscriptions is the number of live query-level table-bus
	// attachments (one per open Scan/NewData access method).
	Subscriptions int
	// SharedSubscriptions is the number of distinct shared access-method
	// subscriptions backing them (one per (table, filter) signature).
	SharedSubscriptions int
	// Decodes counts newData arrivals decoded — exactly once per
	// arrival, however many queries consumed it.
	Decodes uint64
	// MalformedDrops counts FAILED TUPLE DECODES (the exec.Discarded
	// policy, surfaced): once per arrival on the newData path, once per
	// scanning query on the catch-up path (a malformed object that stays
	// in the store is re-encountered by every later catch-up scan), and
	// once per result message a proxy could not decode. Zero means no
	// malformed data met any query.
	MalformedDrops uint64
	// GraphsRejected counts opgraph DELIVERIES this node refused under
	// the MaxLiveGraphs admission cap (a redundantly delivered graph
	// can be refused more than once; rejection keeps no per-graph
	// memory by design — a shedding node must not grow state).
	GraphsRejected uint64
	// RejectAcks counts admission-reject acks received while proxying
	// (one per refused delivery, see GraphsRejected).
	RejectAcks uint64
	// FlushTimerFires counts coalesced flush-wheel timer events;
	// GraphFlushes counts the graph flushes they drove. Without the
	// wheel the two would be equal (one timer event per graph flush).
	FlushTimerFires uint64
	GraphFlushes    uint64
	// WheelSlots is the number of occupied flush-wheel slots (one per
	// distinct flush period with live registrations). Nonzero after
	// every continuous query has torn down means a leaked timer chain.
	WheelSlots int
	// BatchFrames counts dissemination frames this node broadcast as a
	// proxy; BatchedGraphs counts the opgraphs they carried.
	BatchFrames   uint64
	BatchedGraphs uint64
	// SharedSubtrees is the number of shared operator chains currently
	// live; SubtreeAttachments counts the query tails attached to them.
	// Attachments/Subtrees is the operator-level duplication factor
	// subtree sharing removes (the §3.3.2 multi-query optimization).
	SharedSubtrees     int
	SubtreeAttachments int
	// SubtreeBuilds/SubtreeHits are cumulative cache misses/hits on the
	// subtree cache: hits/(hits+builds) is the share rate — ≈1 for a
	// same-shape storm.
	SubtreeBuilds uint64
	SubtreeHits   uint64
	// SharedExecFanout counts demux deliveries from shared chains to
	// per-query tails: the work that became O(1)-per-publish fan-out
	// instead of per-query operator execution.
	SharedExecFanout uint64
	// ChainFeeds counts arrivals the bus delivered into operator chains —
	// the operator executions actually paid per publish. Private execution
	// pays one feed per query per publish; shared execution pays one per
	// DISTINCT chain per publish, so this staying flat in Q is the
	// sharing proof.
	ChainFeeds uint64
	// ChainPushes counts the bus's PushBatch calls into chains: one per
	// chain per arrival, or per release where a share holds (bus.go).
	ChainPushes uint64
	// HeldRows is the arrival rows the bus holds for window-gated chains;
	// nonzero after teardown is a leak.
	HeldRows int
	// CatchUpObjects counts stored objects that catch-up reads handed to
	// the frame decoder: a keyed read (an index lookup) moves it by the
	// key's matches, a whole-partition scan by everything the node holds
	// of the table.
	CatchUpObjects uint64
	// ClientQuotaRejects counts refusals under the per-client graph
	// quota (a subset of GraphsRejected); ClientRejects breaks them down
	// by client id (nil when there were none).
	ClientQuotaRejects uint64
	ClientRejects      map[string]uint64
	// TrackedClients is the number of client ids with live graphs (the
	// quota ledger's population — nonzero after full teardown is a leak).
	TrackedClients int
	// SendRetries counts nack-driven retransmissions on the reliable
	// send paths (result forwarding, hierarchical-agg partials, rehash
	// puts, admit acks); SendExhausted counts payloads abandoned after
	// the retry budget (backoff.go).
	SendRetries   uint64
	SendExhausted uint64
	// PendingSends is the number of result sends currently holding
	// retry state (awaiting a transport ack or a retry timer). Nonzero
	// after teardown plus the ack/backoff grace is a leaked retry.
	PendingSends int
	// Trees is the number of redundant distribution trees this node
	// maintains (Config.NumTrees).
	Trees int
	// TreeRepairs counts children dropped on a broadcast-forward nack;
	// TreeReinjects counts broadcast payloads re-routed toward a root
	// (after such a drop, or after the root itself nacked);
	// TreeRejoins counts early re-announcements (parent evicted as
	// dead, or an announce the overlay abandoned) as opposed to
	// periodic refreshes.
	TreeRepairs   uint64
	TreeReinjects uint64
	TreeRejoins   uint64
	// TreeSeenEntries is the broadcast-dedup population across this
	// node's trees (forwarding + execution ids). Entries expire on the
	// refresh tick; growth proportional to all-time query count here
	// was the tree's memory leak.
	TreeSeenEntries int
}

// Stats returns the node's query-runtime counters.
func (n *Node) Stats() NodeStats {
	ss := n.dht.SubscriptionStats()
	attachments := 0
	for _, c := range n.subtrees {
		attachments += c.demux.Live()
	}
	held := 0
	for _, sh := range n.bus.shares {
		held += sh.heldRows
	}
	var clientRejects map[string]uint64
	if len(n.clientRejects) > 0 {
		clientRejects = make(map[string]uint64, len(n.clientRejects))
		for c, r := range n.clientRejects {
			clientRejects[c] = r
		}
	}
	return NodeStats{
		GraphsExecuted:      n.graphsExecuted,
		ResultsSent:         n.resultsSent,
		LiveGraphs:          n.liveGraphs,
		Subscriptions:       n.bus.targets,
		SharedSubscriptions: len(n.bus.shares),
		Decodes:             ss.Decodes,
		MalformedDrops:      ss.Malformed + n.malformedFrames.Count(),
		GraphsRejected:      n.graphsRejected,
		RejectAcks:          n.rejectAcks,
		FlushTimerFires:     n.wheel.fires,
		GraphFlushes:        n.wheel.flushes,
		WheelSlots:          len(n.wheel.slots),
		BatchFrames:         n.batchFrames,
		BatchedGraphs:       n.batchedGraphs,
		SharedSubtrees:      len(n.subtrees),
		SubtreeAttachments:  attachments,
		SubtreeBuilds:       n.subtreeBuilds,
		SubtreeHits:         n.subtreeHits,
		SharedExecFanout:    n.sharedFanout,
		ChainFeeds:          n.chainFeeds,
		ChainPushes:         n.chainPushes,
		HeldRows:            held,
		CatchUpObjects:      n.catchUpObjects,
		ClientQuotaRejects:  n.clientQuotaRejects,
		ClientRejects:       clientRejects,
		TrackedClients:      len(n.clientLive),
		SendRetries:         n.sendRetries,
		SendExhausted:       n.sendExhausted,
		PendingSends:        n.pendingSends,
		Trees:               len(n.trees.trees),
		TreeRepairs:         n.trees.repairs,
		TreeReinjects:       n.trees.reinjects,
		TreeRejoins:         n.trees.rejoins,
		TreeSeenEntries:     len(n.trees.seenExec) + len(n.trees.seenFwd),
	}
}

// TreeChildren returns the number of live distribution-tree children
// recorded at this node across all its trees — an interior-node measure.
// Driver context or this node's own events only.
func (n *Node) TreeChildren() int { return n.trees.childCount() }

// uniquifier draws a random tuple suffix (§3.2.1: suffixes are chosen at
// random to minimize spurious name collisions).
func (n *Node) uniquifier() string {
	return fmt.Sprintf("%08x%08x", n.rt.Rand().Uint32(), n.rt.Rand().Uint32())
}

// Publish stores a tuple into a published table: the DHT name is
// (table, key from keyCols), making the table a primary hash index on
// those attributes (§3.3.3). ack, if non-nil, reports acceptance.
func (n *Node) Publish(table string, keyCols []string, t *tuple.Tuple, lifetime time.Duration, ack vri.AckFunc) {
	key, ok := t.KeyString(keyCols...)
	if !ok {
		if ack != nil {
			ack(false)
		}
		return
	}
	n.dht.Put(table, key, n.uniquifier(), t.Encode(), lifetime, ack)
}

// PublishLocal stores a tuple at this node only — data queried in situ,
// like packet traces and firewall logs in endpoint network monitoring
// (§2.2). True-predicate (broadcast) queries reach it via local scans.
func (n *Node) PublishLocal(table string, t *tuple.Tuple, lifetime time.Duration) {
	n.dht.PutLocal(table, "", n.uniquifier(), t.Encode(), lifetime)
}

// Submit runs a query with this node as the proxy (§3.3.2): the query is
// validated, its opgraphs are disseminated, and results stream to
// onResult until the timeout, after which onDone fires. clientID
// attributes the query for rate limiting; empty means unattributed.
func (n *Node) Submit(q *ufl.Query, clientID string, onResult func(*tuple.Tuple), onDone func()) error {
	if !n.started {
		return fmt.Errorf("qp: node not started")
	}
	if err := q.Validate(); err != nil {
		return err
	}
	if _, dup := n.proxied[q.ID]; dup {
		return fmt.Errorf("qp: query id %q already in flight", q.ID)
	}
	if !n.limiter.admit(clientID) {
		return fmt.Errorf("qp: client %q exceeds rate limit", clientID)
	}
	ps := &proxyState{id: q.ID, onResult: onResult, onDone: onDone}
	n.proxied[q.ID] = ps
	ps.timer = n.rt.Schedule(q.Timeout+n.cfg.DoneGrace, func() {
		delete(n.proxied, q.ID)
		if ps.onFinal != nil {
			ps.onFinal(int(ps.admits), len(ps.contributors))
		}
		if ps.onDone != nil {
			ps.onDone()
		}
	})
	// All executors share one absolute deadline, so a node that receives
	// an opgraph late (slow dissemination lookup, deep tree position)
	// still flushes in time for the proxy to deliver its results. Nodes
	// are only loosely synchronized (§3.3.4); the deadline needs only
	// coarse agreement.
	deadline := n.rt.Now().Add(q.Timeout)
	for _, g := range q.Graphs {
		n.disseminate(q, deadline, clientID, g)
	}
	return nil
}

// disseminate routes one opgraph to the nodes that must run it (§3.3.3).
// Broadcast opgraphs do not travel immediately: they join the proxy's
// dissemination batch, and every graph enqueued within DissemBatchWindow
// rides ONE distribution-tree frame — a storm of Q near-simultaneous
// query submissions costs one tree broadcast per proxy per window
// instead of Q.
func (n *Node) disseminate(q *ufl.Query, deadline time.Time, client string, g ufl.Opgraph) {
	switch g.Dissem.Mode {
	case ufl.DissemLocal:
		n.acceptGraph(q.ID, deadline, n.rt.Addr(), client, g)
	case ufl.DissemBroadcast:
		n.pendingBatch = append(n.pendingBatch, ufl.BatchEntry{
			QueryID:  q.ID,
			Deadline: deadline,
			Proxy:    string(n.rt.Addr()),
			Client:   client,
			Graph:    g,
		})
		// A query that cannot afford the batch delay ships immediately:
		// waiting would spend the window out of its remaining life and
		// leave too little for tree propagation (executors drop graphs
		// past the deadline). The margin is a few windows, not one, so a
		// query just over the window still gets useful propagation time
		// — batching only ever trades latency it can spare.
		if deadline.Sub(n.rt.Now()) <= 4*n.cfg.DissemBatchWindow {
			if n.batchTimer != nil {
				n.batchTimer.Cancel()
			}
			n.flushDissemBatch()
			return
		}
		if n.batchTimer == nil {
			n.batchTimer = n.rt.Schedule(n.cfg.DissemBatchWindow, n.batchFn)
		}
	case ufl.DissemEquality:
		payload := encodeDisseminate(q.ID, deadline, n.rt.Addr(), client, g)
		// Route to the owner of the named key — the equality-predicate
		// index: only nodes holding that partition see the query. The
		// lookup retries: silently dropping a query's only opgraph would
		// return an empty (wrong) answer.
		var try func(attempt int)
		try = func(attempt int) {
			n.dht.Lookup(g.Dissem.Namespace, g.Dissem.Key, func(owner vri.Addr, err error) {
				if err != nil {
					if attempt < 3 && n.rt.Now().Before(deadline) {
						try(attempt + 1)
					}
					return
				}
				if owner == n.rt.Addr() {
					n.acceptGraph(q.ID, deadline, n.rt.Addr(), client, g)
					return
				}
				n.rt.Send(owner, vri.PortQuery, payload, nil)
			})
		}
		try(0)
	}
}

// flushDissemBatch ships every pending broadcast opgraph in
// distribution-tree frames (ufl batch codec v2), splitting batches that
// exceed the codec's u16 entry count so nothing silently drops.
func (n *Node) flushDissemBatch() {
	n.batchTimer = nil
	for len(n.pendingBatch) > 0 {
		entries := n.pendingBatch
		if len(entries) > ufl.MaxBatchEntries {
			entries = entries[:ufl.MaxBatchEntries]
		}
		n.pendingBatch = n.pendingBatch[len(entries):]
		if len(n.pendingBatch) == 0 {
			n.pendingBatch = nil
		}
		// The frame is held across the tree root lookup (an async
		// boundary), so it gets its own writer, not the scratch.
		body := ufl.EncodeBatch(entries)
		w := wire.NewWriter(8 + len(body))
		w.U8(qmDisseminateBatch)
		w.Bytes32(body)
		n.batchFrames++
		n.batchedGraphs += uint64(len(entries))
		n.trees.broadcast(w.Bytes())
	}
}

// acceptGraph instantiates an arriving opgraph and runs it until the
// query's deadline (§3.3.2). An opgraph executes as soon as it is
// received; operators must catch up with data that arrived before them
// (§3.3.4). Admission control is graduated: the whole-node MaxLiveGraphs
// cap refuses any graph past saturation, and the per-client
// MaxGraphsPerClient quota refuses one client's flood while other
// clients keep executing — both with an explicit reject ack to the
// proxy, so degradation is bounded and visible instead of collapse.
func (n *Node) acceptGraph(queryID string, deadline time.Time, proxy vri.Addr, client string, g ufl.Opgraph) {
	remaining := deadline.Sub(n.rt.Now())
	if remaining <= 0 {
		return // arrived after the query already ended
	}
	rq := n.running[queryID]
	if rq != nil {
		for _, lg := range rq.graphs {
			if lg.specID == g.ID {
				return // duplicate dissemination (tree redundancy)
			}
		}
	}
	if n.cfg.MaxLiveGraphs > 0 && n.liveGraphs >= n.cfg.MaxLiveGraphs {
		n.rejectGraph(queryID, proxy)
		return
	}
	if !n.clientAdmit(client) {
		n.rejectGraph(queryID, proxy)
		return
	}
	if rq == nil {
		rq = &runningQuery{id: queryID, proxy: proxy, timeout: remaining}
		n.running[queryID] = rq
		rq.timer = n.rt.Schedule(remaining, func() { n.finishQuery(rq) })
	}
	lg, err := n.instantiate(rq, g)
	if err != nil {
		// No catalog means errors surface only here; the graph is
		// skipped on this node (best-effort).
		return
	}
	lg.client = client
	n.clientGraphOpened(client)
	rq.graphs = append(rq.graphs, lg)
	n.graphsExecuted++
	n.liveGraphs++
	// First admitted opgraph of the query at this node: ack the
	// admission so the proxy can count its completeness denominator.
	if !rq.admitted {
		rq.admitted = true
		n.ackAdmit(queryID, proxy)
	}
	lg.own.open()
}

// ackAdmit reports to the proxy that this node admitted (at least one
// opgraph of) the query — one ack per (query, node), the denominator of
// the proxy's completeness ratio. Inside a batch-dissemination frame the
// acks are collected and ride one qmAdmit frame per proxy; elsewhere
// they ship immediately. The send retries on nack: a silently lost
// admit would skew every completeness ratio the proxy reports.
func (n *Node) ackAdmit(queryID string, proxy vri.Addr) {
	if n.admitBatch != nil {
		n.admitBatch[proxy] = append(n.admitBatch[proxy], queryID)
		return
	}
	n.sendAdmits(proxy, []string{queryID})
}

// maxMessageIDs bounds the id list of one result or admit message: phys
// sends one UDP datagram per message and cannot report one too large, so
// a list past ~64 KB would be retransmitted to exhaustion, never arrive.
const maxMessageIDs = 512

// cutIDs splits an id list into the run one message carries and the rest.
func cutIDs[T any](ids []T) (run, rest []T) {
	if len(ids) > maxMessageIDs {
		return ids[:maxMessageIDs], ids[maxMessageIDs:]
	}
	return ids, nil
}

// sendAdmits ships ids to proxy in qmAdmit frames (cutIDs), with
// loopback delivery for self-proxied queries (the ack still arrives as
// an event, like the network one — see rejectGraph). The retry closure
// allocates per admit frame, which is per query per node, never on the
// per-event hot path.
func (n *Node) sendAdmits(proxy vri.Addr, ids []string) {
	if proxy == n.rt.Addr() {
		n.rt.Schedule(0, func() {
			for _, id := range ids {
				n.deliverAdmit(id)
			}
		})
		return
	}
	for run, rest := cutIDs(ids); len(run) > 0; run, rest = cutIDs(rest) {
		var try func(attempt int)
		try = func(attempt int) {
			w := n.scratch
			w.Reset()
			w.U8(qmAdmit)
			ufl.EncodeAdmitsTo(w, run)
			n.rt.Send(proxy, vri.PortQuery, w.Bytes(), func(ok bool) {
				if ok {
					return
				}
				if attempt >= sendRetryLimit {
					n.sendExhausted++
					return
				}
				n.sendRetries++
				n.rt.Schedule(n.retryDelay(attempt), func() { try(attempt + 1) })
			})
		}
		try(0)
	}
}

// deliverAdmit records one executor node's admission ack at the proxy.
func (n *Node) deliverAdmit(queryID string) {
	if ps := n.proxied[queryID]; ps != nil {
		ps.admits++
	}
}

// rejectGraph refuses an opgraph delivery under admission control and
// acks the refusal to the proxy explicitly, so overload is visible end
// to end. Deliberately stateless: accepted graphs dedup redundant tree
// deliveries via rq.graphs, but a node at its cap must not grow a
// rejected-set either — so a redundant delivery of a refused graph is
// refused (and acked) again. Counters therefore count refusals, not
// distinct refusing nodes.
func (n *Node) rejectGraph(queryID string, proxy vri.Addr) {
	n.graphsRejected++
	if proxy == n.rt.Addr() {
		// Loopback ack still arrives as an event, like the network one:
		// a locally-disseminated graph can be refused synchronously
		// inside Submit, before the caller has wired its reject hook.
		n.rt.Schedule(0, func() { n.deliverReject(queryID) })
		return
	}
	w := n.scratch
	w.Reset()
	w.U8(qmReject)
	w.String(queryID)
	n.rt.Send(proxy, vri.PortQuery, w.Bytes(), nil)
}

// deliverReject records an admission-reject ack at the proxy.
func (n *Node) deliverReject(queryID string) {
	n.rejectAcks++
	if ps := n.proxied[queryID]; ps != nil && ps.onReject != nil {
		ps.onReject()
	}
}

// finishQuery flushes stateful operators, tears the query down, and
// forgets it.
func (n *Node) finishQuery(rq *runningQuery) {
	if n.running[rq.id] != rq {
		return
	}
	for _, lg := range rq.graphs {
		lg.flush()
	}
	for _, lg := range rq.graphs {
		lg.close()
	}
	if rq.timer != nil {
		rq.timer.Cancel()
	}
	delete(n.running, rq.id)
}

// openResult is one proxy's message of the fan-out in progress.
type openResult struct {
	proxy vri.Addr
	rqs   []*runningQuery
}

// forwardResult ships a batch of finished rows — a whole emitted window,
// or one streamed row — toward the query's proxy node, or straight to the
// client callback when this node is the proxy. The network unit is one
// message per (batch, proxy), not per query: a demux fanning the SAME
// batch to Q tails calls here Q times, and each call after a proxy's
// first only adds the query to that proxy's open message. The messages
// leave when the fan-out unwinds (chain.PushBatch) — at once for a
// private chain, a fan-out of one — and before a different batch opens
// any (a callback that published into another chain). Each is
// ack-tracked: a nacked send retries on the shared backoff policy
// (backoff.go) instead of silently losing the rows.
func (n *Node) forwardResult(rq *runningQuery, b *tuple.Batch) {
	k := b.Len()
	if k == 0 {
		return
	}
	n.resultsSent += uint64(k)
	if rq.proxy == n.rt.Addr() {
		n.deliverResult([]*proxyState{n.proxied[rq.id]}, n.rt.Addr(), b)
		return
	}
	if n.openOf != b {
		n.sendOpenResults()
		n.openOf = b
	}
	i, ok := n.openAt[rq.proxy]
	if !ok {
		i = len(n.open)
		n.openAt[rq.proxy] = i
		if i < cap(n.open) {
			n.open = n.open[:i+1] // reuse the entry's id slice
		} else {
			n.open = append(n.open, openResult{})
		}
		n.open[i].proxy = rq.proxy
	}
	n.open[i].rqs = append(n.open[i].rqs, rq)
	if n.fanning == 0 {
		n.sendOpenResults()
	}
}

// sendOpenResults sends the open messages in first-seen proxy order, a
// long id list as several messages over the same frame, each under one
// pooled retry state and one pendingSends unit, and leaves nothing open.
func (n *Node) sendOpenResults() {
	open, b := n.open, n.openOf
	n.open, n.openOf = n.open[:0], nil
	clear(n.openAt)
	for i := range open {
		o := &open[i]
		for run, rest := cutIDs(o.rqs); len(run) > 0; run, rest = cutIDs(rest) {
			rr := n.popRetry()
			rr.proxy, rr.b, rr.attempt = o.proxy, b, 0
			rr.rqs = append(rr.rqs, run...)
			n.pendingSends++
			rr.send()
		}
		clear(o.rqs)
		o.proxy, o.rqs = "", o.rqs[:0]
	}
}

// encodeResult frames a result message into the node's scratch writer:
// the ids of the queries it serves, the origin — the executor node the
// rows came from, which the proxy counts as a completeness contributor —
// and ONE tuple frame running to the end of the message, so a shared
// window costs O(groups + ids) per proxy on the wire. One id spends no
// byte on the list form; the rows are encoded once per batch, and a
// single row ships in the single-tuple encoding, which is itself a frame
// and 6 bytes under the columnar header.
func (n *Node) encodeResult(rr *resultRetry) []byte {
	if n.resultFrameOf != rr.b {
		n.resultFrame.Reset()
		if rr.b.Len() == 1 {
			rr.b.EncodeRowTo(0, n.resultFrame)
		} else {
			rr.b.EncodeRowsTo(n.resultFrame, nil)
		}
		n.resultFrameOf = rr.b
	}
	w := n.scratch
	w.Reset()
	if len(rr.rqs) == 1 {
		w.U8(qmResultBatch)
	} else {
		w.U8(qmResultMulti)
		w.U16(uint16(len(rr.rqs)))
	}
	for _, rq := range rr.rqs {
		w.String(rq.id)
	}
	w.String(string(n.rt.Addr()))
	w.Raw(n.resultFrame.Bytes())
	return w.Bytes()
}

// deliverResult hands a batch of result rows to the client callback of
// every listed query this node still proxies (nil: finished or unknown).
// Per query: one contributor mark for origin, len(b) result rows, one
// callback per row — the client boundary stays row-oriented. The row
// views are materialised once and shared by the listed queries
// (immutable, safe to retain).
func (n *Node) deliverResult(listed []*proxyState, origin vri.Addr, b *tuple.Batch) {
	k := b.Len()
	var rows []*tuple.Tuple
	for _, ps := range listed {
		if ps == nil {
			continue
		}
		ps.results += uint64(k)
		if origin != "" {
			if ps.contributors == nil {
				ps.contributors = make(map[vri.Addr]struct{})
			}
			ps.contributors[origin] = struct{}{}
		}
		if ps.onResult == nil {
			continue
		}
		if rows == nil {
			rows = b.Tuples(make([]*tuple.Tuple, 0, k))
		}
		for _, t := range rows {
			ps.onResult(t)
		}
	}
}

// Query-port message kinds.
const (
	qmDisseminate = iota + 1
	qmTreeBroadcast
	// qmDisseminateBatch carries a ufl batch frame: several opgraphs'
	// dissemination records in one distribution-tree broadcast.
	qmDisseminateBatch
	// qmReject is the admission-control refusal ack, executor → proxy.
	qmReject
	// qmAdmit is the admission ack, executor → proxy: a list of query
	// ids this node admitted (one entry per query, however many
	// opgraphs), the completeness denominator. Batch-disseminated
	// queries share one frame per (executor, proxy) pair.
	qmAdmit
	// qmResultBatch carries result rows for one query as one tuple frame
	// (tuple.DecodeFrame): a whole emitted window, or a single row.
	qmResultBatch
	// qmResultMulti is qmResultBatch for two or more queries of one proxy:
	// a u16 count and that many ids where qmResultBatch has its one.
	qmResultMulti
)

func encodeDisseminate(queryID string, deadline time.Time, proxy vri.Addr, client string, g ufl.Opgraph) []byte {
	w := wire.NewWriter(256)
	w.U8(qmDisseminate)
	w.String(queryID)
	w.Time(deadline)
	w.String(string(proxy))
	w.String(client)
	w.Bytes32(ufl.EncodeGraph(g))
	return w.Bytes()
}

// handleMessage is the query processor's datagram entry point.
func (n *Node) handleMessage(src vri.Addr, payload []byte) {
	r := wire.NewReader(payload)
	switch kind := r.U8(); kind {
	case qmDisseminate:
		queryID := r.String()
		deadline := r.Time()
		proxy := vri.Addr(r.String())
		client := r.String()
		graphBytes := r.Bytes32()
		if r.Err() != nil {
			return
		}
		g, err := ufl.DecodeGraph(graphBytes)
		if err != nil {
			return
		}
		n.acceptGraph(queryID, deadline, proxy, client, *g)

	case qmDisseminateBatch:
		entries, err := ufl.DecodeBatch(r.Bytes32())
		if r.Err() != nil || err != nil {
			return
		}
		// Collect this frame's admit acks so they ride one qmAdmit frame
		// per proxy back — the batch-codec economy, in reverse.
		n.admitBatch = make(map[vri.Addr][]string)
		for i := range entries {
			e := &entries[i]
			n.acceptGraph(e.QueryID, e.Deadline, vri.Addr(e.Proxy), e.Client, e.Graph)
		}
		batch := n.admitBatch
		n.admitBatch = nil
		// Sorted proxy order: map iteration order must not decide the
		// message sequence (sharded-determinism contract). In practice a
		// frame has one proxy; the sort is for decoded-frame generality.
		proxies := make([]vri.Addr, 0, len(batch))
		for p := range batch {
			proxies = append(proxies, p)
		}
		sort.Slice(proxies, func(i, j int) bool { return proxies[i] < proxies[j] })
		for _, p := range proxies {
			n.sendAdmits(p, batch[p])
		}

	case qmReject:
		queryID := r.String()
		if r.Err() != nil {
			return
		}
		n.deliverReject(queryID)

	case qmAdmit:
		ids, err := ufl.DecodeAdmitsFrom(r)
		if r.Err() != nil || err != nil {
			return
		}
		for _, id := range ids {
			n.deliverAdmit(id)
		}

	case qmResultBatch, qmResultMulti:
		// Validated whole before the first callback.
		count := 1
		if kind == qmResultMulti {
			count = int(r.U16())
		}
		// An id costs at least its 4-byte length prefix, so a count the
		// bytes cannot carry is refused before it reserves anything.
		if count == 0 || count > r.Remaining()/4 {
			n.malformedFrames.Inc()
			return
		}
		listed := make([]*proxyState, count)
		for i := range listed {
			listed[i] = n.proxied[string(r.Bytes32())] // no id is copied
		}
		origin := vri.Addr(r.String())
		var b *tuple.Batch
		err := r.Err()
		if err == nil {
			// The frame is the rest of the message.
			b, err = tuple.DecodeFrame(payload[len(payload)-r.Remaining():])
		}
		if err != nil {
			n.malformedFrames.Inc()
			return
		}
		n.deliverResult(listed, origin, b)

	case qmTreeBroadcast:
		n.trees.handleBroadcast(r)
	}
}
