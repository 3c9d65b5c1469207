// Package broadcast implements the bounded fan-out layer of the
// subscription CDC pipeline: resource agents publish typed data-change
// events into a Hub, and the Hub routes each event to the standing
// queries it can affect — matched by changed class and by overlap between
// the subscription's pushable constraint region and the change's region —
// then hands batches to per-subscriber sender goroutines.
//
// The design goals, in order:
//
//   - The mutation path never blocks on a subscriber. Publish enqueues
//     onto bounded per-subscriber queues and returns; delivery happens on
//     per-subscriber senders, so one stalled monitor cannot stall the
//     resource or its other subscribers.
//   - Memory is bounded. Each queue holds at most QueueCap events; under
//     overload newer events coalesce into the newest pending one (a
//     standing query re-evaluates from current data anyway, so folding
//     change notices together is lossless) and the fold is counted rather
//     than silently absorbed.
//   - Dormant subscriptions are free. A subscriber with nothing pending
//     has no goroutine; the sender is spawned on the idle→busy edge and
//     exits when its queue drains, so 100k mostly-quiet standing queries
//     cost memory for their registrations only.
package broadcast

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/telemetry"
)

var (
	mEvents = telemetry.Default.Counter("infosleuth_broadcast_events_total",
		"Data-change events published into subscription broadcast hubs.")
	mEnqueues = telemetry.Default.Counter("infosleuth_broadcast_enqueues_total",
		"Change-event enqueues onto per-subscriber broadcast queues (indexed matches plus the evaluate-all tier).")
	mCoalesced = telemetry.Default.Counter("infosleuth_broadcast_coalesced_total",
		"Change events coalesced into the newest pending event because a subscriber queue was full.")
	mDropped = telemetry.Default.Counter("infosleuth_broadcast_dropped_total",
		"Change events dropped because the subscription was already closed.")
	mSenders = telemetry.Default.Gauge("infosleuth_broadcast_active_senders",
		"Per-subscriber sender goroutines currently active across all hubs.")
)

// Event is one typed data-change notice flowing through a hub.
type Event struct {
	// Seq is the hub-assigned monotonic sequence number.
	Seq uint64
	// Class is the lowercased ontology class (table) that changed; ""
	// means the extent of the change is unknown and every subscription
	// must be considered.
	Class string
	// Region is the constraint region the change touched — for an
	// inserted row, the point region of its column values. nil means the
	// whole class. The hub only reads it; callers must not mutate a
	// published region.
	Region *constraint.Set
	// Rows counts changed rows; coalesced events accumulate their sum.
	Rows int
	// TraceID carries the mutation's conversation trace, if any, so the
	// asynchronous delivery can still record spans against it.
	TraceID string
}

// Batch is what a subscriber's sender delivers: the pending events in
// arrival order plus how many events were folded away under overload.
// The Events slice is only valid for the duration of the Deliver call —
// the sender reuses its buffers.
type Batch struct {
	Events []Event
	// Coalesced counts events merged into survivors since the last batch.
	Coalesced int
}

// Last returns the newest event in the batch.
func (b Batch) Last() Event {
	if len(b.Events) == 0 {
		return Event{}
	}
	return b.Events[len(b.Events)-1]
}

// Deliver consumes one batch on the subscriber's sender goroutine. It may
// block (re-evaluate a query, push a notification over the network);
// blocking only delays this subscriber's next batch.
type Deliver func(Batch)

// Options configures a Hub.
type Options struct {
	// QueueCap bounds each subscriber's pending-event queue; <= 0 means
	// DefaultQueueCap. Overflow coalesces to the newest pending event.
	QueueCap int
}

// DefaultQueueCap is the per-subscriber queue bound when Options leaves
// QueueCap unset.
const DefaultQueueCap = 64

// Hub routes published events to subscriptions.
type Hub struct {
	opts Options
	seq  atomic.Uint64
	busy atomic.Int64

	mu sync.RWMutex
	// byClass holds the indexed tier: subscriptions registered for
	// specific classes, keyed by lowercased class name.
	byClass map[string]*class
	// all holds the evaluate-all tier: subscriptions whose queries could
	// not be indexed; they receive every event.
	all    map[string]*Sub
	closed bool
}

// class is the indexed tier of one class: its subscriptions by ID, and a
// region index over the same IDs that a publish probes instead of testing
// every subscription's region.
type class struct {
	subs  map[string]*Sub
	index *constraint.RegionIndex[string]
}

// candidates holds Publish's scratch list of the IDs a probe returns, so
// a publish allocates nothing once the pool is warm.
var candidates = sync.Pool{New: func() any { return new([]string) }}

// New creates a hub.
func New(opts Options) *Hub {
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultQueueCap
	}
	return &Hub{
		opts:    opts,
		byClass: make(map[string]*class),
		all:     make(map[string]*Sub),
	}
}

// Sub is one registered subscription: the index entry plus the bounded
// queue feeding its sender.
type Sub struct {
	hub *Hub
	id  string
	// classes lists the distinct lowercased classes the subscription is
	// indexed under.
	classes []string
	region  *constraint.Set
	deliver Deliver

	mu        sync.Mutex
	queue     []Event
	spare     []Event
	pendCoal  int
	coalesced uint64
	dropped   uint64
	running   bool
	closed    bool
}

// Subscribe registers a subscription. classes lists the lowercased
// ontology classes whose changes can affect it and region its pushable
// constraint region (nil = unconstrained); an empty classes list puts the
// subscription in the evaluate-all tier, which sees every event. The hub
// retains region and requires it to stay unmodified.
//
// Subscribing an ID that is already registered replaces the registration:
// the earlier Sub leaves every class and tier it was in and is closed, as
// if by its Close, and only the new region is indexed.
func (h *Hub) Subscribe(id string, classes []string, region *constraint.Set, deliver Deliver) *Sub {
	s := &Sub{hub: h, id: id, deliver: deliver, region: region}
	for _, c := range classes {
		if c = strings.ToLower(c); !slices.Contains(s.classes, c) {
			s.classes = append(s.classes, c)
		}
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.closed = true
		return s
	}
	prev := h.registered(id)
	if prev != nil {
		h.unregister(prev)
	}
	if len(s.classes) == 0 {
		h.all[id] = s
	}
	for _, c := range s.classes {
		cl := h.byClass[c]
		if cl == nil {
			cl = &class{subs: make(map[string]*Sub), index: constraint.NewRegionIndex[string]()}
			h.byClass[c] = cl
		}
		cl.subs[id] = s
		cl.index.Add(id, []*constraint.Set{region})
	}
	h.mu.Unlock()
	if prev != nil {
		prev.close()
	}
	return s
}

// registered returns the Sub registered under id, if any. h.mu must be
// held.
func (h *Hub) registered(id string) *Sub {
	if s := h.all[id]; s != nil {
		return s
	}
	for _, cl := range h.byClass {
		if s := cl.subs[id]; s != nil {
			return s
		}
	}
	return nil
}

// unregister removes s from every class and tier it is registered in; a
// Sub that an ID's later Subscribe replaced is registered nowhere. h.mu
// must be held for writing.
func (h *Hub) unregister(s *Sub) {
	if h.all[s.id] == s {
		delete(h.all, s.id)
	}
	for _, c := range s.classes {
		cl := h.byClass[c]
		if cl == nil || cl.subs[s.id] != s {
			continue
		}
		delete(cl.subs, s.id)
		cl.index.Remove(s.id, []*constraint.Set{s.region})
		if len(cl.subs) == 0 {
			delete(h.byClass, c)
		}
	}
}

// Publish routes an event: subscriptions indexed under the event's class
// whose region overlaps the change are enqueued, the evaluate-all tier is
// always enqueued, and everything else is skipped without work. It
// returns how many subscriptions were enqueued and how many indexed
// subscriptions were skipped by the region test: the re-evaluations the
// index saved. An event with an empty
// Class enqueues every subscription. Publish never blocks on delivery.
//
// The class's region index narrows the indexed tier to the subscriptions
// that may overlap the change; only those get the exact region test, so
// a change costs the subscriptions it can reach, not the class's size.
func (h *Hub) Publish(ev Event) (matched, skipped int) {
	ev.Seq = h.seq.Add(1)
	mEvents.Inc()
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return 0, 0
	}
	if ev.Class == "" {
		// Unknown extent: every subscription must re-evaluate.
		for _, cl := range h.byClass {
			for _, s := range cl.subs {
				if s.offer(ev) {
					matched++
				}
			}
		}
	} else if cl := h.byClass[ev.Class]; cl != nil {
		buf := candidates.Get().(*[]string)
		ids := cl.index.AppendCandidates((*buf)[:0], ev.Region)
		overlapping := 0
		for _, id := range ids {
			s := cl.subs[id]
			// The subscription's region and the change's region overlap
			// when every field both constrain admits a common value; a
			// disjoint field proves the changed rows cannot satisfy the
			// standing query's WHERE clause, so its answer is unchanged.
			if !s.region.Overlaps(ev.Region) {
				continue
			}
			overlapping++
			if s.offer(ev) {
				matched++
			}
		}
		skipped = len(cl.subs) - overlapping
		*buf = ids[:0]
		candidates.Put(buf)
	}
	for _, s := range h.all {
		if s.offer(ev) {
			matched++
		}
	}
	return matched, skipped
}

// Flush blocks until every sender has drained its queue and gone idle (or
// the context expires). Events published after Flush is called may or may
// not be waited for.
func (h *Hub) Flush(ctx context.Context) error {
	for {
		if h.busy.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// Close shuts the hub: pending queues are discarded (counted as drops)
// and running senders exit after their in-flight delivery. Subscriptions
// created afterward are inert.
func (h *Hub) Close() {
	h.mu.Lock()
	subs := make([]*Sub, 0, len(h.all))
	for _, s := range h.all {
		subs = append(subs, s)
	}
	for _, cl := range h.byClass {
		for _, s := range cl.subs {
			subs = append(subs, s)
		}
	}
	h.byClass = make(map[string]*class)
	h.all = make(map[string]*Sub)
	h.closed = true
	h.mu.Unlock()
	seen := make(map[*Sub]bool, len(subs))
	for _, s := range subs {
		if !seen[s] {
			seen[s] = true
			s.close()
		}
	}
}

// Stats is a point-in-time summary of a hub.
type Stats struct {
	// Seq is the last assigned event sequence number.
	Seq uint64 `json:"seq"`
	// ActiveSenders counts sender goroutines currently running.
	ActiveSenders int64 `json:"active_senders"`
	// Subscribers counts registered subscriptions (both tiers).
	Subscribers int `json:"subscribers"`
	// EvalAllTier counts subscriptions in the evaluate-all fallback tier.
	EvalAllTier int `json:"eval_all_tier"`
}

// Stats reports the hub's current state.
func (h *Hub) Stats() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	seen := make(map[string]bool)
	for _, cl := range h.byClass {
		for id := range cl.subs {
			seen[id] = true
		}
	}
	return Stats{
		Seq:           h.seq.Load(),
		ActiveSenders: h.busy.Load(),
		Subscribers:   len(seen) + len(h.all),
		EvalAllTier:   len(h.all),
	}
}

// ID returns the subscription's identifier.
func (s *Sub) ID() string { return s.id }

// Indexed reports whether the subscription sits in the indexed tier.
func (s *Sub) Indexed() bool { return len(s.classes) > 0 }

// QueueStats returns the current queue depth and the lifetime coalesce and
// drop counts.
func (s *Sub) QueueStats() (queued int, coalesced, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.coalesced, s.dropped
}

// Close removes the subscription from its hub and discards its pending
// queue; an in-flight delivery completes, nothing further is delivered.
func (s *Sub) Close() {
	h := s.hub
	h.mu.Lock()
	h.unregister(s)
	h.mu.Unlock()
	s.close()
}

func (s *Sub) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if n := len(s.queue); n > 0 {
		s.dropped += uint64(n)
		mDropped.Add(int64(n))
		s.queue = s.queue[:0]
	}
}

// offer enqueues an event without blocking. This is the mutation-path
// fast path: once the queue buffer has grown to its bound it performs no
// allocation (appends reuse capacity; overflow coalesces in place).
func (s *Sub) offer(ev Event) bool {
	s.mu.Lock()
	if s.closed {
		s.dropped++
		s.mu.Unlock()
		mDropped.Inc()
		return false
	}
	if len(s.queue) >= s.hub.opts.QueueCap {
		// Coalesce-to-latest: fold the new event into the newest pending
		// one. The subscriber re-evaluates from current data, so a folded
		// notice loses only the per-event region detail — widened to
		// "whole class" (or unknown class) when the two disagree.
		last := &s.queue[len(s.queue)-1]
		if last.Class != ev.Class {
			last.Class = ""
			last.Region = nil
		} else if last.Region != ev.Region {
			last.Region = nil
		}
		last.Seq = ev.Seq
		last.Rows += ev.Rows
		if ev.TraceID != "" {
			last.TraceID = ev.TraceID
		}
		s.pendCoal++
		s.coalesced++
		s.mu.Unlock()
		mCoalesced.Inc()
		mEnqueues.Inc()
		return true
	}
	s.queue = append(s.queue, ev)
	wake := !s.running
	if wake {
		s.running = true
	}
	s.mu.Unlock()
	mEnqueues.Inc()
	if wake {
		s.hub.busy.Add(1)
		mSenders.Add(1)
		go s.run()
	}
	return true
}

// run is the sender loop: drain the queue in batches, deliver, exit when
// idle. At most one run goroutine exists per subscription.
func (s *Sub) run() {
	for {
		s.mu.Lock()
		if s.closed || len(s.queue) == 0 {
			s.running = false
			s.mu.Unlock()
			s.hub.busy.Add(-1)
			mSenders.Add(-1)
			return
		}
		batch := Batch{Events: s.queue, Coalesced: s.pendCoal}
		// Swap buffers: the just-taken slice becomes the spare once the
		// delivery below returns, and new events land in the old spare.
		s.queue = s.spare[:0]
		s.spare = batch.Events
		s.pendCoal = 0
		s.mu.Unlock()
		s.deliver(batch)
	}
}
