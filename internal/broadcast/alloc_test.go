//go:build !race

package broadcast

import "testing"

// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestBroadcastEnqueueAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, fullQueuePublishOp(t)); n != 0 {
		t.Errorf("publish into a full queue allocates %.0f per op, want 0", n)
	}
}

// TestPublishAllocs: a point change that overlaps none of 4,000 indexed
// subscriptions is an index probe over a pooled candidate list, and
// allocates nothing.
func TestPublishAllocs(t *testing.T) {
	h := windowHub(t, 4_000)
	h.Subscribe("far", []string{"c2"}, rangeSet("c2.a", 2e6, 3e6), func(Batch) {})
	ev := Event{Class: "c2", Region: pointChange("n1", -5), Rows: 1}
	if matched, _ := h.Publish(ev); matched != 0 {
		t.Fatalf("the change overlaps %d subscriptions, want none", matched)
	}
	if n := testing.AllocsPerRun(100, func() { h.Publish(ev) }); n != 0 {
		t.Errorf("a non-overlapping publish allocates %.0f per op, want 0", n)
	}
}
