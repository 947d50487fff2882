package overlay

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
)

// soloDHT spins up one started DHT (a singleton ring) for registry tests
// that only need the local storeLocal → dispatch path.
func soloDHT(t *testing.T) *DHT {
	t.Helper()
	env := sim.NewEnv(sim.Options{Seed: 77})
	d := New(env.Spawn("solo"), Config{})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSubscriptionRegistryNoLeak is the regression test for the
// append-only subscriber slice this registry replaced: cancelling used to
// nil a slot but never reclaim it, so 10k opened-and-closed queries left
// 10k dead entries that every later dispatch walked. Now subscriber count
// and dispatch cost must return exactly to baseline.
func TestSubscriptionRegistryNoLeak(t *testing.T) {
	d := soloDHT(t)
	const n = 10_000
	cancels := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		cancels = append(cancels, d.OnNewData("t", func(Object) {}))
	}
	if got := d.Subscribers("t"); got != n {
		t.Fatalf("Subscribers = %d, want %d", got, n)
	}
	for _, c := range cancels {
		c()
		c() // Cancel must be idempotent
	}
	if got := d.Subscribers("t"); got != 0 {
		t.Fatalf("after cancelling all: Subscribers = %d, want 0", got)
	}
	st := d.SubscriptionStats()
	if st.Live != 0 || st.Namespaces != 0 {
		t.Fatalf("registry did not return to baseline: %+v", st)
	}
	// Dispatch cost back to baseline: an arrival in the drained
	// namespace must not even be counted as a dispatch (the namespace
	// entry is gone), let alone walk 10k dead slots.
	d.PutLocal("t", "k", "s", []byte("x"), time.Minute)
	if st := d.SubscriptionStats(); st.Dispatches != 0 {
		t.Fatalf("dispatch into a fully drained namespace: %+v", st)
	}
}

func (s *Subscription) mustLive(t *testing.T) {
	t.Helper()
	if s.dead {
		t.Fatal("subscription unexpectedly dead")
	}
}

// TestSubscriptionDispatchOrderAndMidDispatchCancel pins the dispatch
// semantics: subscription order is the dispatch order, and a Cancel
// issued from inside a dispatch takes effect immediately for the
// in-flight object.
func TestSubscriptionDispatchOrderAndMidDispatchCancel(t *testing.T) {
	d := soloDHT(t)
	var order []string
	var subC *Subscription
	d.Subscribe("t", func(Object) {
		order = append(order, "a")
		subC.Cancel() // c is after us and must be skipped this dispatch
	})
	d.Subscribe("t", func(Object) { order = append(order, "b") })
	subC = d.Subscribe("t", func(Object) { order = append(order, "c") })

	d.PutLocal("t", "k", "s1", []byte("x"), time.Minute)
	if want := "ab"; fmt.Sprint(len(order)) != "2" || order[0]+order[1] != want {
		t.Fatalf("dispatch order = %v, want [a b]", order)
	}
	d.PutLocal("t", "k", "s2", []byte("x"), time.Minute)
	if len(order) != 4 || order[2]+order[3] != "ab" {
		t.Fatalf("second dispatch order = %v, want [a b a b]", order)
	}
	if got := d.Subscribers("t"); got != 2 {
		t.Fatalf("Subscribers = %d, want 2", got)
	}
}

// TestSubscribeDuringDispatchMissesInFlightObject: a subscription added
// from inside a dispatch starts with the NEXT arrival.
func TestSubscribeDuringDispatchMissesInFlightObject(t *testing.T) {
	d := soloDHT(t)
	lateSeen := 0
	d.Subscribe("t", func(Object) {
		if lateSeen == 0 { // only once
			d.Subscribe("t", func(Object) { lateSeen++ })
		}
	})
	d.PutLocal("t", "k", "s1", []byte("x"), time.Minute)
	if lateSeen != 0 {
		t.Fatal("subscription added during dispatch saw the in-flight object")
	}
	d.PutLocal("t", "k", "s2", []byte("x"), time.Minute)
	if lateSeen != 1 {
		t.Fatalf("late subscriber saw %d arrivals, want 1", lateSeen)
	}
}

// TestResubscribeDuringLocalScan: re-subscribing to a namespace while a
// catch-up LocalScan over that namespace is in progress (the §3.3.4
// catch-up pattern) must neither disturb the scan nor deliver scanned
// objects to the new subscriber — LocalScan reads the store, not the
// dispatch path.
func TestResubscribeDuringLocalScan(t *testing.T) {
	d := soloDHT(t)
	for i := 0; i < 5; i++ {
		d.PutLocal("t", "k", fmt.Sprintf("s%d", i), []byte("x"), time.Minute)
	}
	var sub *Subscription
	arrivals := 0
	scanned := 0
	d.LocalScan("t", func(Object) bool {
		scanned++
		if sub == nil {
			sub = d.SubscribeBatches("t", func(_ Object, b *tuple.Batch) { arrivals += b.Len() })
		}
		return true
	})
	if scanned != 5 {
		t.Fatalf("scanned %d objects, want 5", scanned)
	}
	if arrivals != 0 {
		t.Fatal("catch-up scan leaked into the subscription path")
	}
	sub.mustLive(t)
	d.PutLocal("t", "k", "s9", tuple.New("t").Encode(), time.Minute)
	if arrivals != 1 {
		t.Fatalf("post-scan arrivals = %d, want 1", arrivals)
	}
}

// TestDecodeOnceSharedBatch: many batch subscribers, one decode, and all
// of them receive the identical *tuple.Batch.
func TestDecodeOnceSharedBatch(t *testing.T) {
	d := soloDHT(t)
	const subs = 32
	var got []*tuple.Batch
	for i := 0; i < subs; i++ {
		d.SubscribeBatches("fw", func(_ Object, b *tuple.Batch) { got = append(got, b) })
	}
	enc := tuple.New("fw").Set("src", tuple.String("10.0.0.1")).Encode()
	d.PutLocal("fw", "k", "s", enc, time.Minute)

	if len(got) != subs {
		t.Fatalf("%d deliveries, want %d", len(got), subs)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("subscribers received different batch instances; decode-once broken")
		}
	}
	st := d.SubscriptionStats()
	if st.Decodes != 1 || st.Malformed != 0 {
		t.Fatalf("decodes = %d malformed = %d, want 1/0", st.Decodes, st.Malformed)
	}
}

// TestMalformedObjectCountedAndSkipped: a payload that fails frame decode
// is counted once, skipped by batch subscribers, and still delivered raw.
func TestMalformedObjectCountedAndSkipped(t *testing.T) {
	d := soloDHT(t)
	tupleSeen, rawSeen := 0, 0
	d.SubscribeBatches("fw", func(_ Object, b *tuple.Batch) { tupleSeen += b.Len() })
	d.SubscribeBatches("fw", func(_ Object, b *tuple.Batch) { tupleSeen += b.Len() })
	d.Subscribe("fw", func(Object) { rawSeen++ })

	d.PutLocal("fw", "k", "bad", []byte{0xff, 0x01}, time.Minute)
	if tupleSeen != 0 || rawSeen != 1 {
		t.Fatalf("tupleSeen=%d rawSeen=%d, want 0/1", tupleSeen, rawSeen)
	}
	st := d.SubscriptionStats()
	if st.Malformed != 1 || st.Decodes != 1 {
		t.Fatalf("stats = %+v, want one decode attempt counted malformed", st)
	}

	d.PutLocal("fw", "k", "good", tuple.New("fw").Encode(), time.Minute)
	if tupleSeen != 2 || rawSeen != 2 {
		t.Fatalf("after good object: tupleSeen=%d rawSeen=%d, want 2/2", tupleSeen, rawSeen)
	}
}

// TestCancelCompactionKeepsOrder: heavy cancellation triggers compaction;
// the surviving subscribers must keep their relative dispatch order.
func TestCancelCompactionKeepsOrder(t *testing.T) {
	d := soloDHT(t)
	var order []int
	subs := make([]*Subscription, 64)
	for i := 0; i < 64; i++ {
		i := i
		subs[i] = d.Subscribe("t", func(Object) { order = append(order, i) })
	}
	// Cancel everything except multiples of 7 — enough dead entries to
	// force compaction several times over.
	for i, s := range subs {
		if i%7 != 0 {
			s.Cancel()
		}
	}
	d.PutLocal("t", "k", "s", []byte("x"), time.Minute)
	want := []int{0, 7, 14, 21, 28, 35, 42, 49, 56, 63}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
