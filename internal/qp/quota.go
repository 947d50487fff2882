package qp

// clientAdmit is the executor-side per-client concurrency quota — the
// graduated form of the whole-node MaxLiveGraphs backstop and the §4.1.2
// defense against clients "unfairly overwhelming the system with expensive
// operations". It bounds a client's CONCURRENT live graphs at each
// executor: one runaway tenant exhausts its own quota and receives
// explicit rejects (acked through the same rejectGraph path as node-level
// overload), while other tenants' queries keep instantiating. An empty
// client id is exempt — internal traffic and legacy proxies that predate
// the client field on the dissemination wire are never quota-rejected.
// Identity is taken at face value: as the paper notes, real deployment
// needs a dependable authentication mechanism to resist Sybil attacks.
func (n *Node) clientAdmit(client string) bool {
	if client == "" || n.cfg.MaxGraphsPerClient <= 0 {
		return true
	}
	if n.clientLive[client] < n.cfg.MaxGraphsPerClient {
		return true
	}
	n.clientQuotaRejects++
	if n.clientRejects == nil {
		n.clientRejects = make(map[string]uint64)
	}
	n.clientRejects[client]++
	return false
}

// clientGraphOpened charges one live graph to the client's ledger.
func (n *Node) clientGraphOpened(client string) {
	if client == "" {
		return
	}
	n.clientLive[client]++
}

// clientGraphClosed releases a closing graph's charge. Entries are
// deleted at zero so the ledger is leak-assertable: after full teardown
// the map must be empty.
func (n *Node) clientGraphClosed(client string) {
	if client == "" {
		return
	}
	if n.clientLive[client]--; n.clientLive[client] <= 0 {
		delete(n.clientLive, client)
	}
}
