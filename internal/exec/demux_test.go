package exec

import (
	"testing"

	"pier/internal/tuple"
)

// The demux re-tags: each target sees the shared stream under its OWN
// tag, in attach order, and batches arrive as the same shared batch.
func TestDemuxFansOutUnderTargetTags(t *testing.T) {
	d := &Demux{}
	a, b := &collect{}, &collect{}
	d.Attach(7, a)
	d.Attach(9, b)

	push(d, 1, row(1))
	batch := tuple.FromTuples([]*tuple.Tuple{row(2), row(3)})
	d.PushBatch(1, batch)

	for _, tc := range []struct {
		name string
		c    *collect
		tag  Tag
	}{{"a", a, 7}, {"b", b, 9}} {
		if len(tc.c.tuples) != 3 {
			t.Fatalf("%s: got %d tuples, want 3", tc.name, len(tc.c.tuples))
		}
		for i, tg := range tc.c.tags {
			if tg != tc.tag {
				t.Fatalf("%s: delivery %d under tag %d, want %d", tc.name, i, tg, tc.tag)
			}
		}
	}
}

// Detach is idempotent; the last detach retires the demux and fires
// OnEmpty exactly once.
func TestDemuxRetiresOnLastDetach(t *testing.T) {
	d := &Demux{}
	fired := 0
	d.OnEmpty(func() { fired++ })
	a, b := &collect{}, &collect{}
	ta := d.Attach(1, a)
	tb := d.Attach(2, b)

	ta.Detach()
	ta.Detach() // idempotent
	push(d, 0, row(1))
	if len(a.tuples) != 0 || len(b.tuples) != 1 {
		t.Fatalf("detached target still fed: a=%d b=%d", len(a.tuples), len(b.tuples))
	}
	if fired != 0 || d.Retired() {
		t.Fatal("demux retired while a target is still live")
	}
	tb.Detach()
	if fired != 1 || !d.Retired() {
		t.Fatalf("last detach: fired=%d retired=%v, want 1/true", fired, d.Retired())
	}
	tb.Detach()
	if fired != 1 {
		t.Fatalf("OnEmpty fired %d times, want exactly once", fired)
	}
}

// A detach during dispatch (a tail tearing itself down mid-delivery)
// must not disturb the in-flight fan-out for targets not yet visited.
func TestDemuxDetachDuringDispatch(t *testing.T) {
	d := &Demux{}
	var ta *DemuxTarget
	a := SinkFunc(func(Tag, *tuple.Tuple) { ta.Detach() })
	b := &collect{}
	ta = d.Attach(1, a)
	d.Attach(2, b)

	push(d, 0, row(1))
	if len(b.tuples) != 1 {
		t.Fatalf("mid-dispatch detach starved a later target: got %d", len(b.tuples))
	}
	push(d, 0, row(2))
	if len(b.tuples) != 2 {
		t.Fatalf("second dispatch after detach: got %d, want 2", len(b.tuples))
	}
}
