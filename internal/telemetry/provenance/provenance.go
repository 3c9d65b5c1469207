// Package provenance routes decision-provenance events (kqml.ProvEvent)
// from the agents that make decisions to the process-local flight
// recorder and onto KQML reply envelopes.
//
// A decision travels as one more entry of the conversation's trace: a
// kqml.TraceSpan with Op kqml.OpDecision and the event in its Decision
// field. It is recorded through the same telemetry.RecordSpan hook as a
// timing span, and a per-request Collector carried on the context
// gathers the decisions one handler produced so they can be appended to
// the reply envelope's trace (kqml.AppendSpans) and ride back toward the
// originator.
//
// Everything is off by default: with no span recorder installed and no
// collector on the context, Emitter construction returns nil and
// producers skip all event-building work, so untraced conversations and
// the Section 5 experiment harness pay nothing.
package provenance

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// lastStart is the Start of the latest decision stamped in this process.
var lastStart atomic.Int64

// Decision wraps ev as a trace entry stamped with the moment it was
// emitted. Stamps are unique within the process (never less than one
// nanosecond after the previous one), so two equal decisions emitted
// apart stay two entries, while a decision recorded locally and its copy
// mirrored from a reply envelope share the recorder's identity key and
// collapse into one.
func Decision(ev kqml.ProvEvent) kqml.TraceSpan {
	now := time.Now().UnixNano()
	for {
		last := lastStart.Load()
		start := max(now, last+1)
		if lastStart.CompareAndSwap(last, start) {
			return kqml.TraceSpan{Agent: ev.Agent, Op: kqml.OpDecision, Start: start, Decision: &ev}
		}
	}
}

// Collector gathers the trace entries one request handler produced so
// the handler can attach them to its reply envelope. It is safe for
// concurrent use (MRQ fan-out workers record from goroutines).
type Collector struct {
	mu      sync.Mutex
	entries []kqml.TraceSpan
}

// Add appends entries to the collector, enforcing the envelope caps so a
// runaway producer cannot bloat the eventual reply.
func (c *Collector) Add(entries ...kqml.TraceSpan) {
	if c == nil || len(entries) == 0 {
		return
	}
	c.mu.Lock()
	c.entries = kqml.AppendSpans(c.entries, entries...)
	c.mu.Unlock()
}

// Entries returns the collected entries (the internal slice; callers
// attach it to exactly one reply).
func (c *Collector) Entries() []kqml.TraceSpan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
}

type collectorKey struct{}

// CollectorFrom returns the context's collector, or nil.
func CollectorFrom(ctx context.Context) *Collector {
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}

// Receive returns the context a handler serves msg under, the envelope-to-
// context half of trace propagation (transport's Call stamps the outgoing
// envelope from the context). A traced message yields a context carrying
// its trace ID and a fresh Collector, also returned, for the entries the
// handler's reply carries back (producers down the call chain find it via
// For); an untraced one yields context.Background() and a nil collector.
func Receive(msg *kqml.Message) (context.Context, *Collector) {
	if msg.TraceID == "" {
		return context.Background(), nil
	}
	c := &Collector{}
	return context.WithValue(telemetry.WithTraceID(context.Background(), msg.TraceID), collectorKey{}, c), c
}

// Emitter is a producer's handle for one traced request: it fans each
// decision out to the process recorder and the request's collector. A
// nil Emitter is inert, so call sites read:
//
//	if em := provenance.For(ctx); em != nil {
//	    em.Emit(kqml.ProvEvent{...})
//	}
//
// keeping all event-building work behind the nil check.
type Emitter struct {
	traceID   string
	collector *Collector
}

// For returns an Emitter when the context carries a trace ID and someone
// is listening (a span recorder, a context collector, or both); nil
// otherwise.
func For(ctx context.Context) *Emitter {
	traceID := telemetry.TraceIDFrom(ctx)
	if traceID == "" {
		return nil
	}
	c := CollectorFrom(ctx)
	if c == nil && !telemetry.SpanRecorderActive() {
		return nil
	}
	return &Emitter{traceID: traceID, collector: c}
}

// Emit delivers one decision to the recorder and/or collector.
func (e *Emitter) Emit(ev kqml.ProvEvent) {
	if e == nil {
		return
	}
	d := Decision(ev)
	telemetry.RecordSpan(e.traceID, d)
	e.collector.Add(d)
}

// CollectReply folds the decisions a reply envelope carried, and its drop
// marker, into the context's collector, so a relaying agent (MRQ fan-out,
// a user-facing agent) propagates its callees' decisions on its own
// reply. Timing spans stay behind: the process recorder already saw every
// entry via the transport.
func CollectReply(ctx context.Context, reply *kqml.Message) {
	c := CollectorFrom(ctx)
	if c == nil || reply == nil {
		return
	}
	var carried []kqml.TraceSpan
	for _, s := range reply.Trace {
		if s.Decision != nil || s.Op == kqml.OpTraceDropped {
			carried = append(carried, s)
		}
	}
	c.Add(carried...)
}
