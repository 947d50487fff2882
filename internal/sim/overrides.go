package sim

import (
	"fmt"
	"time"

	"pier/internal/vri"
)

// Network condition overrides: failure-injection state layered on the
// topology and loss model, installed by drivers (churn scripts, the
// scenario runner in internal/experiments) to model partitions and
// degraded links without touching the Topology implementation.
//
// Contract:
//
//   - Overrides are driver state: install, change, or clear them only
//     from driver/coordinator context (between runs or inside
//     environment-level events). Shard workers read them during windows;
//     the window barrier orders every mutation against those reads.
//   - A partition cuts the FORWARD path only: a send whose endpoints sit
//     in different components is dropped and the sender nacked after
//     AckTimeout, exactly like message loss. Delivery acks for messages
//     that did arrive ride back unconditionally — the transport never
//     loses acks (runDeliver), so "reliable-or-notified" survives a
//     partition that forms while a message is in flight.
//   - Per-link loss draws from the SENDER's random stream, after the
//     environment-level LossRate draw, so lossy-link runs remain
//     bit-identical at any worker count.
//   - Extra latency is additive and must be >= 0: the topology's
//     MinLatency stays a valid lower bound, which is what keeps the
//     scheduler's conservative lookahead sound under overrides.
//   - Installing or clearing an override changes the sender rng draw
//     sequence from that barrier on (draw count per send depends on the
//     override table). That is deterministic — the table only changes at
//     barriers — but it means runs with different override scripts are
//     not comparable event-for-event, only run-for-run.

// linkKey identifies one directed link.
type linkKey struct{ a, b vri.Addr }

// linkOverride is the extra condition applied to one directed link.
type linkOverride struct {
	// extraLatency is added to the topology's propagation delay, in both
	// the forward path and the delivery ack's reverse path.
	extraLatency time.Duration
	// loss is an independent drop probability applied after the
	// environment-level LossRate.
	loss float64
}

// netOverrides is the override table hung off Env.net.
type netOverrides struct {
	// group maps an address to its partition component; addresses absent
	// from the map share the implicit component -1. nil when no
	// partition is active.
	group map[vri.Addr]int
	// links holds per-directed-link conditions. nil when none are set.
	links map[linkKey]linkOverride
}

// link reports the override for the directed link a->b and whether an
// active partition cuts it. Called from the delivery path, including
// shard workers mid-window; read-only.
func (nv *netOverrides) link(a, b vri.Addr) (linkOverride, bool) {
	cut := false
	if nv.group != nil {
		ga, ok := nv.group[a]
		if !ok {
			ga = -1
		}
		gb, ok := nv.group[b]
		if !ok {
			gb = -1
		}
		cut = ga != gb
	}
	if nv.links == nil {
		return linkOverride{}, cut
	}
	return nv.links[linkKey{a, b}], cut
}

// netMut returns the override table for mutation, allocating it on first
// use and enforcing the driver-context rule.
func (e *Env) netMut() *netOverrides {
	if e.par != nil && e.par.inWindow {
		panic("sim: network overrides may only change from driver context")
	}
	if e.net == nil {
		e.net = &netOverrides{}
	}
	return e.net
}

// SetPartition installs a network partition: every listed address
// belongs to the component of its group, all unlisted addresses share
// one implicit component, and messages whose endpoints sit in different
// components are dropped (sender nacked after AckTimeout). Passing one
// group therefore isolates it from the rest of the network. The
// partition replaces any previously installed one and lasts until
// HealPartition. Driver context only.
func (e *Env) SetPartition(groups ...[]vri.Addr) {
	nv := e.netMut()
	nv.group = make(map[vri.Addr]int)
	for gi, g := range groups {
		for _, a := range g {
			nv.group[a] = gi
		}
	}
}

// HealPartition removes the active partition, if any. Links resume at
// whatever per-link overrides remain installed. Driver context only.
func (e *Env) HealPartition() {
	if e.net == nil {
		return
	}
	e.netMut().group = nil
}

// Partitioned reports whether a partition is currently installed.
func (e *Env) Partitioned() bool { return e.net != nil && e.net.group != nil }

// SetLinkOverride installs a symmetric per-link condition between a and
// b: extraLatency is added to the propagation delay in both directions
// (and to the delivery ack's reverse path), and loss is an independent
// drop probability layered on Options.LossRate. Zero values clear the
// link's override. Driver context only.
func (e *Env) SetLinkOverride(a, b vri.Addr, extraLatency time.Duration, loss float64) {
	if extraLatency < 0 {
		panic(fmt.Sprintf("sim: negative link latency override %v would break the scheduler's lookahead bound", extraLatency))
	}
	if loss < 0 || loss > 1 {
		panic(fmt.Sprintf("sim: link loss override %v outside [0, 1]", loss))
	}
	nv := e.netMut()
	if extraLatency == 0 && loss == 0 {
		if nv.links != nil {
			delete(nv.links, linkKey{a, b})
			delete(nv.links, linkKey{b, a})
		}
		return
	}
	if nv.links == nil {
		nv.links = make(map[linkKey]linkOverride)
	}
	ov := linkOverride{extraLatency: extraLatency, loss: loss}
	nv.links[linkKey{a, b}] = ov
	nv.links[linkKey{b, a}] = ov
}

// ClearLinkOverrides removes every per-link condition. Driver context
// only.
func (e *Env) ClearLinkOverrides() {
	if e.net == nil {
		return
	}
	e.netMut().links = nil
}
