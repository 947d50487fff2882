package qp

import (
	"time"

	"pier/internal/tuple"
	"pier/internal/ufl"
)

// ResultSet is a per-node result collector: the sharded-safe way for a
// simulation driver to consume a query's output.
//
// Under the sharded Main Scheduler a query's results are delivered by
// events running on the proxy node's worker, so a Submit callback that
// writes driver-owned state (a shared slice, a latency recorder) races
// with other shards and breaks the scheduler's determinism discipline.
// A ResultSet keeps the accumulation on the proxy node: only the proxy's
// own events append to it, and the driver drains it at window barriers —
// between Env.Run calls, when all workers are parked. See the sharded-
// harness rules in ROADMAP.md; internal/experiments uses this for every
// figure and ablation harness.
type ResultSet struct {
	rows    []*tuple.Tuple
	firstAt time.Time
	done    bool
	rejects int
	// Completeness tallies, copied from the proxy state when the
	// done-grace timer fires: executor nodes that acked admission, and
	// distinct executor nodes that delivered at least one result row.
	admitted    int
	contributed int
}

// SubmitCollect runs a query with this node as the proxy, collecting
// results into the returned ResultSet instead of invoking a callback.
// clientID attributes the query for the per-client quota, as in Submit.
func (n *Node) SubmitCollect(q *ufl.Query, clientID string) (*ResultSet, error) {
	rs := &ResultSet{}
	err := n.Submit(q, clientID, func(t *tuple.Tuple) {
		if len(rs.rows) == 0 {
			// The proxy node's clock is exact in both scheduler modes;
			// the environment clock would be stale inside a window.
			rs.firstAt = n.rt.Now()
		}
		rs.rows = append(rs.rows, t)
	}, func() {
		rs.done = true
	})
	if err != nil {
		return nil, err
	}
	// Reject acks arrive on the proxy's events, like results; the hook
	// keeps the count in the per-query collector so the driver can
	// attribute admission-control shedding to individual queries.
	if ps := n.proxied[q.ID]; ps != nil {
		ps.onReject = func() { rs.rejects++ }
		ps.onFinal = func(admitted, contributed int) {
			rs.admitted, rs.contributed = admitted, contributed
		}
	}
	return rs, nil
}

// Completeness returns the fraction of admitting executor nodes that
// contributed at least one result row — the paper's best-effort answers
// made quantitative: 1.0 means every node that accepted the query was
// heard from; lower means failures (or retry exhaustion) silenced part
// of the answer. The second return is false until the query is Done
// (the tallies are final only after the done-grace period) or when no
// node acked admission. A contributor implies an admission, so the
// denominator uses whichever tally is larger — a lost admit ack can
// never push the ratio above 1. Only meaningful for broadcast queries
// where every admitting node is expected to report (continuous
// aggregations); an equality lookup with no matching rows legitimately
// reports 0. Driver context only.
func (rs *ResultSet) Completeness() (float64, bool) {
	denom := rs.admitted
	if rs.contributed > denom {
		denom = rs.contributed
	}
	if !rs.done || denom == 0 {
		return 0, false
	}
	return float64(rs.contributed) / float64(denom), true
}

// Rejects returns how many refusal acks the proxy received for this
// query — one per refused opgraph delivery, whether the executor was
// saturated or could not build the graph (a redundant tree delivery can
// be refused more than once; see qp.NodeStats.GraphsRejected). Driver
// context only.
func (rs *ResultSet) Rejects() int { return rs.rejects }

// Rows returns the results collected so far, in arrival order. Driver
// context only (between runs, or at a window barrier).
func (rs *ResultSet) Rows() []*tuple.Tuple { return rs.rows }

// Len returns the number of results collected so far. Driver context
// only.
func (rs *ResultSet) Len() int { return len(rs.rows) }

// Done reports whether the query's done-grace period elapsed at the
// proxy. Driver context only.
func (rs *ResultSet) Done() bool { return rs.done }

// FirstAt returns the proxy-node virtual time the first result arrived,
// and whether any result has arrived. Driver context only.
func (rs *ResultSet) FirstAt() (time.Time, bool) {
	return rs.firstAt, len(rs.rows) > 0
}
