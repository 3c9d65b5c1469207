package broadcast

import (
	"context"
	"sync"
	"testing"
	"time"

	"infosleuth/internal/constraint"
)

// collector accumulates delivered batches behind a lock.
type collector struct {
	mu      sync.Mutex
	batches []Batch
	events  []Event
}

func (c *collector) deliver(b Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Batch slices are reused by the sender; copy what we keep.
	cp := Batch{Events: append([]Event(nil), b.Events...), Coalesced: b.Coalesced}
	c.batches = append(c.batches, cp)
	c.events = append(c.events, cp.Events...)
}

func (c *collector) snapshot() ([]Batch, []Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Batch(nil), c.batches...), append([]Event(nil), c.events...)
}

func rangeSet(field string, lo, hi float64) *constraint.Set {
	return constraint.NewSet(constraint.Atom{Field: field, Interval: constraint.NewRange(lo, hi)})
}

func flush(t testing.TB, h *Hub) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestPublishRoutesByClassAndRegion(t *testing.T) {
	h := New(Options{})
	defer h.Close()
	var low, high, other collector
	h.Subscribe("low", []string{"C2"}, rangeSet("c2.a", 0, 10), low.deliver)
	h.Subscribe("high", []string{"c2"}, rangeSet("c2.a", 90, 100), high.deliver)
	h.Subscribe("other", []string{"c9"}, nil, other.deliver)

	matched, skipped := h.Publish(Event{Class: "c2", Region: rangeSet("c2.a", 5, 5), Rows: 1})
	if matched != 1 || skipped != 1 {
		t.Fatalf("matched=%d skipped=%d, want 1/1", matched, skipped)
	}
	flush(t, h)
	if _, evs := low.snapshot(); len(evs) != 1 || evs[0].Rows != 1 || evs[0].Seq == 0 {
		t.Fatalf("low got %+v, want one seq-stamped event", evs)
	}
	if _, evs := high.snapshot(); len(evs) != 0 {
		t.Fatalf("high (disjoint region) got %+v", evs)
	}
	if _, evs := other.snapshot(); len(evs) != 0 {
		t.Fatalf("other (different class) got %+v", evs)
	}

	// A nil change region means "whole class": both c2 subs must fire.
	h.Publish(Event{Class: "c2", Rows: 2})
	flush(t, h)
	if _, evs := high.snapshot(); len(evs) != 1 {
		t.Fatalf("high got %d events for whole-class change, want 1", len(evs))
	}

	// An empty class means unknown extent: everyone must fire.
	matched, _ = h.Publish(Event{Rows: 1})
	if matched != 3 {
		t.Fatalf("unknown-extent publish matched %d, want 3", matched)
	}
}

func TestEvaluateAllTierSeesEveryEvent(t *testing.T) {
	h := New(Options{})
	defer h.Close()
	var all collector
	s := h.Subscribe("fallback", nil, nil, all.deliver)
	if s.Indexed() {
		t.Fatal("classless subscription reported as indexed")
	}
	h.Publish(Event{Class: "c2", Region: rangeSet("c2.a", 1, 1), Rows: 1})
	h.Publish(Event{Class: "c9", Rows: 1})
	flush(t, h)
	if _, evs := all.snapshot(); len(evs) != 2 {
		t.Fatalf("fallback tier got %d events, want 2", len(evs))
	}
	if st := h.Stats(); st.EvalAllTier != 1 || st.Subscribers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoalesceToLatestUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	var got []Batch
	var mu sync.Mutex
	h := New(Options{QueueCap: 2})
	defer h.Close()
	h.Subscribe("slow", []string{"c2"}, nil, func(b Batch) {
		mu.Lock()
		got = append(got, Batch{Events: append([]Event(nil), b.Events...), Coalesced: b.Coalesced})
		mu.Unlock()
		<-gate
	})

	// First publish wakes the sender, which takes the event and blocks.
	h.Publish(Event{Class: "c2", Rows: 1, TraceID: "t1"})
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 })

	// Fill the queue (cap 2), then overflow: the overflow folds into the
	// newest pending event instead of growing or blocking.
	h.Publish(Event{Class: "c2", Region: rangeSet("c2.a", 1, 1), Rows: 1})
	h.Publish(Event{Class: "c2", Region: rangeSet("c2.a", 2, 2), Rows: 1})
	ev3 := Event{Class: "c2", Region: rangeSet("c2.a", 3, 3), Rows: 1, TraceID: "t4"}
	h.Publish(ev3)

	sub := h.Subscribe("probe", []string{"c9"}, nil, func(Batch) {})
	_ = sub
	var slow *Sub
	h.mu.RLock()
	slow = h.byClass["c2"].subs["slow"]
	h.mu.RUnlock()
	queued, coalesced, dropped := slow.QueueStats()
	if queued != 2 || coalesced != 1 || dropped != 0 {
		t.Fatalf("queue=%d coalesced=%d dropped=%d, want 2/1/0", queued, coalesced, dropped)
	}

	close(gate) // release the sender; it drains the rest
	flush(t, h)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("got %d batches, want 2", len(got))
	}
	b := got[1]
	if b.Coalesced != 1 || len(b.Events) != 2 {
		t.Fatalf("second batch = %+v, want 2 events with 1 coalesced", b)
	}
	last := b.Events[1]
	// The folded event carries the latest seq and trace, the summed row
	// count, and a widened (nil) region since the two regions differed.
	if last.Rows != 2 || last.TraceID != "t4" || last.Region != nil {
		t.Fatalf("folded event = %+v, want rows=2 trace=t4 region=nil", last)
	}
	if last.Seq <= b.Events[0].Seq {
		t.Fatalf("folded event seq %d not newest (prev %d)", last.Seq, b.Events[0].Seq)
	}
}

func TestStalledSubscriberDoesNotDelayOthers(t *testing.T) {
	gate := make(chan struct{})
	var fast collector
	h := New(Options{})
	defer h.Close()
	h.Subscribe("stalled", []string{"c2"}, nil, func(Batch) { <-gate })
	h.Subscribe("fast", []string{"c2"}, nil, fast.deliver)

	start := time.Now()
	for i := 0; i < 5; i++ {
		h.Publish(Event{Class: "c2", Rows: 1})
	}
	waitFor(t, func() bool { _, evs := fast.snapshot(); return eventRows(evs) == 5 })
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fast subscriber waited %s behind a stalled peer", elapsed)
	}
	close(gate)
	flush(t, h)
}

func TestSubCloseDiscardsPendingAndUnsubscribes(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := New(Options{})
	defer h.Close()
	s := h.Subscribe("s", []string{"c2"}, nil, func(Batch) {
		entered <- struct{}{}
		<-gate
	})
	h.Publish(Event{Class: "c2", Rows: 1})
	<-entered
	h.Publish(Event{Class: "c2", Rows: 1}) // pending behind the stall
	s.Close()
	if matched, _ := h.Publish(Event{Class: "c2", Rows: 1}); matched != 0 {
		t.Fatalf("closed sub still matched %d", matched)
	}
	_, _, dropped := s.QueueStats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the pending event)", dropped)
	}
	close(gate)
	flush(t, h)
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("stats after close = %+v", st)
	}
}

func TestHubCloseStopsDelivery(t *testing.T) {
	var c collector
	h := New(Options{})
	h.Subscribe("s", []string{"c2"}, nil, c.deliver)
	h.Publish(Event{Class: "c2", Rows: 1})
	flush(t, h)
	h.Close()
	if matched, _ := h.Publish(Event{Class: "c2", Rows: 1}); matched != 0 {
		t.Fatalf("closed hub matched %d", matched)
	}
	if s := h.Subscribe("late", nil, nil, c.deliver); !s.inertForTest() {
		t.Fatal("subscription on closed hub is not inert")
	}
}

func (s *Sub) inertForTest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func eventRows(evs []Event) int {
	n := 0
	for _, ev := range evs {
		n += ev.Rows
	}
	return n
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// BenchmarkBroadcastEnqueue measures the mutation-path fast path: Publish
// against a subscriber whose queue is already at its bound (the sender is
// deliberately stalled), so every event takes the coalesce-in-place path.
// TestBroadcastEnqueueAllocs asserts this stays zero-allocation: it runs
// on every data change.
func BenchmarkBroadcastEnqueue(b *testing.B) {
	op := fullQueuePublishOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// fullQueuePublishOp parks a subscriber's sender inside deliver, fills its
// queue to the bound, and returns one more Publish.
func fullQueuePublishOp(tb testing.TB) func() {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := New(Options{QueueCap: 8})
	tb.Cleanup(func() {
		close(gate)
		h.Close()
	})
	h.Subscribe("s", []string{"c2"}, rangeSet("c2.a", 0, 1000), func(Batch) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	})
	h.Publish(Event{Class: "c2", Rows: 1})
	<-entered // sender is now parked inside deliver
	for i := 0; i < 8; i++ {
		h.Publish(Event{Class: "c2", Rows: 1}) // fill the queue to cap
	}
	region := rangeSet("c2.a", 5, 5)
	return func() { h.Publish(Event{Class: "c2", Region: region, Rows: 1}) }
}
