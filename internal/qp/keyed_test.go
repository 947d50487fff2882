package qp

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"pier/internal/sim"
	"pier/internal/tuple"
	"pier/internal/ufl"
)

// Tests for keyed reads: a Scan/NewData of the namespace an
// equality-disseminated opgraph was routed by reads (namespace, key) — the
// DHT's get and a keyed bus share — and every other scan reads the node's
// whole partition, as before. All run on a singleton ring, which owns
// every name: the subject is what the owner reads, not how the graph got
// there (TestEqualityDisseminationReachesOnlyOwner covers that).

// selectPlan is Scan → Select(k = key) → Result over table under the
// given dissemination clause.
func selectPlan(id, dissem, table, key string, timeout time.Duration) *ufl.Query {
	return ufl.MustParse(fmt.Sprintf(`
query %s timeout %s
opgraph g disseminate %s {
    scan = Scan(table='%s')
    sel  = Select(pred='k = ''%s''')
    out  = Result()
    sel <- scan
    out <- sel
}
`, id, timeout, dissem, table, key))
}

// lookupPlan is selectPlan as sqlfront compiles an index lookup: routed by
// the (table, key) it selects.
func lookupPlan(id, table, key string, timeout time.Duration) *ufl.Query {
	return selectPlan(id, fmt.Sprintf("equality '%s' 's%s'", table, key), table, key, timeout)
}

// kvRow is a row of a table hash-indexed on k.
func kvRow(table, k string, v int) *tuple.Tuple {
	return tuple.New(table).Set("k", tuple.String(k)).Set("v", tuple.Int(int64(v)))
}

// submitRows submits plan at n and returns the slice its result rows are
// appended to, rendered as strings in delivery order.
func submitRows(t *testing.T, n *Node, plan *ufl.Query) *[]string {
	t.Helper()
	rows := new([]string)
	if err := n.Submit(plan, "", func(r *tuple.Tuple) { *rows = append(*rows, r.String()) }, nil); err != nil {
		t.Fatal(err)
	}
	return rows
}

// storeKeys publishes one row under each of count filler keys, plus
// suffixes rows under key hot.
func storeKeys(env *sim.Env, n *Node, table string, count int, hot string, suffixes int) {
	for i := 0; i < count; i++ {
		n.Publish(table, []string{"k"}, kvRow(table, fmt.Sprintf("filler%05d", i), i), time.Hour, nil)
	}
	for i := 0; i < suffixes; i++ {
		n.Publish(table, []string{"k"}, kvRow(table, hot, i), time.Hour, nil)
	}
	env.Run(time.Second)
}

// assertNoLeaks checks every leak gauge of the node reads zero.
func assertNoLeaks(t *testing.T, n *Node) {
	t.Helper()
	st := n.Stats()
	if leaked := st.LiveGraphs + st.Subscriptions + st.SharedSubscriptions + st.SharedSubtrees +
		st.SubtreeAttachments + st.WheelSlots + st.PendingSends + st.TrackedClients + st.HeldRows; leaked != 0 {
		t.Errorf("leaked after the deadline: %+v", st)
	}
}

func TestEqualityLookupReadsOnlyItsKey(t *testing.T) {
	env, n := soloNode(t, 211)
	storeKeys(env, n, "kv", 1000, "hot", 3)

	before := n.Stats().CatchUpObjects
	rows := submitRows(t, n, lookupPlan("lk", "kv", "hot", 2*time.Second))
	env.Run(5 * time.Second)
	if got := n.Stats().CatchUpObjects - before; got != 3 {
		t.Errorf("lookup decoded %d stored objects, want 3 (the key's suffixes)", got)
	}
	if len(*rows) != 3 {
		t.Errorf("lookup returned %d rows, want 3: %v", len(*rows), *rows)
	}
	for _, r := range *rows {
		if !strings.Contains(r, "hot") {
			t.Errorf("lookup returned a row of another key: %s", r)
		}
	}

	// The same plan routed by the true-predicate index reads everything
	// the node holds of the table and lets the Select discard it.
	before = n.Stats().CatchUpObjects
	scanned := submitRows(t, n, selectPlan("bc", "broadcast", "kv", "hot", 2*time.Second))
	env.Run(5 * time.Second)
	if got := n.Stats().CatchUpObjects - before; got != 1003 {
		t.Errorf("broadcast scan decoded %d stored objects, want 1003", got)
	}
	if !reflect.DeepEqual(*scanned, *rows) {
		t.Errorf("broadcast scan returned %v, lookup %v", *scanned, *rows)
	}
	assertNoLeaks(t, n)
}

// TestLookupCostIndependentOfStoreSize is "throughput is not a function
// of how much the owner stores" in count form.
func TestLookupCostIndependentOfStoreSize(t *testing.T) {
	cost := func(stored int) uint64 {
		env, n := soloNode(t, 212)
		storeKeys(env, n, "kv", stored, "hot", 2)
		before := n.Stats().CatchUpObjects
		rows := submitRows(t, n, lookupPlan("lk", "kv", "hot", 2*time.Second))
		env.Run(5 * time.Second)
		if len(*rows) != 2 {
			t.Fatalf("%d keys stored: lookup returned %d rows, want 2", stored, len(*rows))
		}
		return n.Stats().CatchUpObjects - before
	}
	if small, large := cost(100), cost(10000); small != large || small != 2 {
		t.Fatalf("lookup decoded %d objects with 100 keys stored and %d with 10000, want 2 and 2", small, large)
	}
}

func TestKeyedBusShareFeedsOnlyItsKey(t *testing.T) {
	env, n := soloNode(t, 213)
	rows1 := submitRows(t, n, lookupPlan("q1", "kv", "K1", 10*time.Second))
	rows2 := submitRows(t, n, lookupPlan("q2", "kv", "K2", 10*time.Second))
	env.Run(time.Second)
	if got := len(n.bus.shares); got != 2 {
		t.Fatalf("%d bus shares for two lookup keys, want 2", got)
	}

	feeds := n.Stats().ChainFeeds
	n.Publish("kv", []string{"k"}, kvRow("kv", "K1", 1), time.Hour, nil)
	env.Run(time.Second)
	if got := n.Stats().ChainFeeds - feeds; got != 1 {
		t.Errorf("an arrival under K1 fed %d chains, want 1", got)
	}
	if len(*rows1) != 1 || len(*rows2) != 0 {
		t.Errorf("arrival under K1 delivered %d rows to K1's lookup and %d to K2's, want 1 and 0", len(*rows1), len(*rows2))
	}

	feeds = n.Stats().ChainFeeds
	n.Publish("kv", []string{"k"}, kvRow("kv", "K3", 3), time.Hour, nil)
	env.Run(time.Second)
	if got := n.Stats().ChainFeeds - feeds; got != 0 {
		t.Errorf("an arrival under K3 fed %d chains, want 0", got)
	}
	if len(*rows1) != 1 || len(*rows2) != 0 {
		t.Errorf("arrival under K3 reached a lookup: %v %v", *rows1, *rows2)
	}

	env.Run(15 * time.Second)
	if got := len(n.bus.shares); got != 0 {
		t.Errorf("%d bus shares after the deadlines, want 0", got)
	}
	if got := n.DHT().Subscribers("kv"); got != 0 {
		t.Errorf("%d overlay subscribers of kv after the deadlines, want 0", got)
	}
	assertNoLeaks(t, n)
}

// TestKeyedRuleBoundary pins what does and does not make a read keyed.
func TestKeyedRuleBoundary(t *testing.T) {
	cases := []struct {
		name, dissem string
		keyed        bool
	}{
		// The graph of TestEqualityDisseminationReachesOnlyOwner.
		{"own namespace", "equality 'items' 'starget'", true},
		{"another table", "equality 'elsewhere' 'starget'", false},
		{"empty key", "equality 'items'", false},
		{"broadcast", "broadcast", false},
		{"local", "local", false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, n := soloNode(t, 214)
			storeKeys(env, n, "items", 5, "target", 1)
			// A whole-partition read decodes all six stored objects and is
			// fed an arrival under any key; a keyed read, its one and none.
			wantRead, wantFeeds := uint64(6), uint64(1)
			if tc.keyed {
				wantRead, wantFeeds = 1, 0
			}
			before := n.Stats()
			rows := submitRows(t, n, selectPlan(fmt.Sprintf("b%d", i), tc.dissem, "items", "target", 3*time.Second))
			env.Run(time.Second)
			n.Publish("items", []string{"k"}, kvRow("items", "late", 9), time.Hour, nil)
			env.Run(5 * time.Second)
			after := n.Stats()
			if got := after.CatchUpObjects - before.CatchUpObjects; got != wantRead {
				t.Errorf("catch-up decoded %d stored objects, want %d", got, wantRead)
			}
			if got := after.ChainFeeds - before.ChainFeeds; got != wantFeeds {
				t.Errorf("an arrival under another key fed %d chains, want %d", got, wantFeeds)
			}
			if len(*rows) != 1 {
				t.Errorf("returned %d rows, want 1: %v", len(*rows), *rows)
			}
			assertNoLeaks(t, n)
		})
	}
}

// TestKeyedReadEqualsFilteredScan is the differential: for every key of a
// seeded mix, an index lookup (keyed read, Select kept) delivers the rows
// the same plan delivers when it scans the owner's whole partition and
// filters — equal rows in equal order, stored and arriving alike.
func TestKeyedReadEqualsFilteredScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			env, n := soloNode(t, 220+seed)
			rng := rand.New(rand.NewSource(seed))
			tables := []string{"ta", "tb"}
			keys := make([]string, 12)
			for i := range keys {
				keys[i] = fmt.Sprintf("key%02d", i)
			}
			v := 0
			put := func(table, key string, life time.Duration) (suffix string) {
				v++
				suffix = fmt.Sprintf("%08x", rng.Uint32())
				n.DHT().Put(table, "s"+key, suffix, kvRow(table, key, v).Encode(), life, nil)
				return suffix
			}
			type name struct{ table, key, suffix string }
			var renew []name
			for _, table := range tables {
				for _, key := range keys {
					switch rng.Intn(4) {
					case 0: // several publishers under one key
						for p, publishers := 0, 2+rng.Intn(4); p < publishers; p++ {
							put(table, key, time.Hour)
						}
					case 1: // expired before the queries start
						put(table, key, 3*time.Second)
					case 2: // renewed just before it would have expired
						renew = append(renew, name{table, key, put(table, key, 4*time.Second)})
						put(table, key, time.Hour)
					default:
						put(table, key, time.Hour)
					}
				}
				// Undecodable bytes under a neighbouring key nobody looks up.
				n.DHT().Put(table, "skey99", "bad", []byte{0xff, 0x02, 0x01}, time.Hour, nil)
			}
			env.Run(3900 * time.Millisecond)
			for _, r := range renew {
				n.DHT().Renew(r.table, "s"+r.key, r.suffix, time.Hour, func(ok bool) {
					if !ok {
						t.Errorf("renew of %v failed", r)
					}
				})
			}
			env.Run(2 * time.Second)

			malformed := n.Stats().MalformedDrops
			type pair struct{ keyed, scanned *[]string }
			results := make(map[name]pair)
			for ti, table := range tables {
				for ki, key := range keys {
					id := fmt.Sprintf("t%dk%d", ti, ki)
					results[name{table: table, key: key}] = pair{
						keyed:   submitRows(t, n, lookupPlan(id+"get", table, key, 5*time.Second)),
						scanned: submitRows(t, n, selectPlan(id+"scan", "local", table, key, 5*time.Second)),
					}
				}
			}
			env.Run(time.Second)
			for i := 0; i < 20; i++ { // arrivals while every query is live
				put(tables[rng.Intn(2)], keys[rng.Intn(len(keys))], time.Hour)
			}
			env.Run(10 * time.Second)

			delivered := 0
			for at, p := range results {
				if !reflect.DeepEqual(*p.keyed, *p.scanned) {
					t.Errorf("%s/%s: keyed read delivered\n  %v\nfiltered scan\n  %v", at.table, at.key, *p.keyed, *p.scanned)
				}
				delivered += len(*p.keyed)
			}
			if delivered < len(keys) {
				t.Fatalf("only %d rows delivered over %d lookups: the mix exercised nothing", delivered, len(results))
			}
			// Each whole-partition scan met its table's malformed object
			// once; no keyed read met it at all.
			if got, want := n.Stats().MalformedDrops-malformed, uint64(len(results)); got != want {
				t.Errorf("MalformedDrops moved by %d, want %d (once per filtered scan, never per keyed read)", got, want)
			}
			assertNoLeaks(t, n)
		})
	}
}
