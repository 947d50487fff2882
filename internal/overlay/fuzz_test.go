package overlay

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/wire"
)

// FuzzOverlayHandleMessage: the overlay port takes datagrams from anyone,
// so whatever arrives must neither panic, nor make the node allocate out
// of proportion to the datagram, nor leave a request pending for ever. The
// seeds are one well-formed datagram of each of the 14 kinds, truncations
// of each, and the two hostile counts TestHostileCounts names. Each input
// goes to a member of a 3-node ring twice — from a ring member's address
// and from a stranger's — then the ring runs past requestTimeout so every
// timer the input armed fires, and is stopped. Every node must then count
// its open finger slots right and serve the stabilise answer a fresh build
// gives.
func FuzzOverlayHandleMessage(f *testing.F) {
	// The fuzzed node's outstanding requests are numbered from here, clear
	// of the ids ring formation used, so the answer seeds find a request.
	const (
		req = 1<<40 + iota
		stabReq
		lookupReq
		getReq
		renewReq
		pingReq
	)
	// An encoder's result aliases its writer, so every seed gets its own.
	nw := func() *wire.Writer { return wire.NewWriter(64) }
	obj := Object{Namespace: "ns", Key: "k", Suffix: "s", Data: []byte("payload"), Lifetime: time.Minute}
	succs := []nodeRef{ref("node-1"), ref("node-2")}
	full := encodeStabilizeResp(nw(), stabReq, encodeStabilizeBody(nw(), "node-2", succs, []nodeRef{ref("node-1")}))
	for _, seed := range [][]byte{
		encodeRouted(nw(), &routedMsg{target: 7, origin: "node-1", hops: 9, inner: riSend, obj: obj}),
		encodeRouted(nw(), &routedMsg{target: 7, origin: "stranger", hops: 9, inner: riLookup, reqID: 1}),
		encodeRouted(nw(), &routedMsg{target: 7, origin: "node-2", hops: 0, inner: riLookup, final: true, reqID: 1}),
		encodeLookupResp(nw(), lookupReq, "node-1", HashNodeAddr("node-1")),
		encodeGetReq(nw(), 1, "ns", "k"),
		encodeGetResp(nw(), getReq, []Object{obj, obj}),
		encodePut(nw(), obj),
		encodeRenewReq(nw(), 1, "ns", "k", "s", time.Minute),
		encodeRenewResp(nw(), renewReq, true),
		encodeStabilizeReq(nw(), 1, 0),
		encodeStabilizeReq(nw(), 1, bodyHash(full[stabBodyOff:])),
		full,
		encodeReqID(nw(), mkStabilizeSame, stabReq),
		encodeAddr(nw(), mkNotify, "node-1"),
		encodeAddr(nw(), mkSuccHint, "node-2"),
		encodeAddr(nw(), mkSuccHint, "stranger-2"),
		encodeReqID(nw(), mkPing, 1),
		encodeReqID(nw(), mkPong, pingReq),
	} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})
	// Counts that outrun the bytes carrying them.
	f.Add(rawFrame(mkGetResp, getReq, 0x01, 0x00, 0x00, 0x00))
	f.Add(rawFrame(mkGetResp, getReq, 0xff, 0xff, 0xff, 0xff))
	f.Add(rawFrame(mkStabilizeResp, stabReq, 0, 0, 0, 0, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		env := sim.NewEnv(sim.Options{Seed: 1})
		dhts := ring(t, env, 3)
		d := dhts[0]
		// One outstanding request of each kind for the answers to land on,
		// in the order the ids above are declared: a stabilise round, the
		// lookup a get starts with (for a key another node owns, so it is
		// still unanswered), a get, a renew and a ping.
		d.router.reqSeq = req
		d.router.stabilize()
		key := 0
		for d.Owns(HashName("ns", fmt.Sprint(key))) {
			key++
		}
		d.Get("ns", fmt.Sprint(key), func([]Object, error) {})
		d.router.newPending(&pendingReq{onGet: func([]Object, error) {}})
		d.router.newPending(&pendingReq{onRenew: func(bool, error) {}})
		d.router.newPending(&pendingReq{onPong: func(error) {}})
		if d.router.reqSeq != pingReq {
			t.Fatalf("request ids ran to %d, seeds assume %d", d.router.reqSeq, uint64(pingReq))
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.handleMessage(dhts[1].Addr(), data)
		d.handleMessage("stranger", data)
		env.Run(requestTimeout + 2*time.Second)
		for _, x := range dhts {
			x.Stop()
		}
		// What was in flight when the tickers stopped times out too.
		env.Run(requestTimeout + 2*time.Second)
		runtime.ReadMemStats(&after)

		// The constant is what 24 virtual seconds of a 3-node ring allocate
		// by themselves; the multiple covers an object crossing the ring
		// (decoded, stored, re-encoded and copied by the simulator per hop).
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(data)); got > bound {
			t.Fatalf("%d-byte datagram made the ring allocate %d bytes (bound %d)", len(data), got, bound)
		}
		for _, x := range dhts {
			if n := len(x.router.pending); n != 0 {
				t.Fatalf("%s still has %d requests pending after requestTimeout", x.Addr(), n)
			}
			if got, want := x.router.open, openSlots(x.router); got != want {
				t.Fatalf("%s counts %d open finger slots, a recount says %d", x.Addr(), got, want)
			}
			servedAnswer(t, x.router, "after the datagram")
		}
	})
}
