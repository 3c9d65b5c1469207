package telemetry

import (
	"context"
	"sync/atomic"

	"infosleuth/internal/kqml"
)

// Span op names. The ops that ride envelopes between agents — the broker
// search, the resource query, decisions and the drop marker — are
// defined in package kqml.
const (
	// OpRPCCall is a client-side transport round trip.
	OpRPCCall = "rpc.call"
	// OpDispatchPrefix prefixes agent.Base dispatch spans; the full op is
	// "dispatch." + performative.
	OpDispatchPrefix = "dispatch."
	// OpQueryBrokers is an agent's broker-query attempt loop (connected
	// brokers first, then known brokers).
	OpQueryBrokers = "query.brokers"
	// OpMRQRun is one end-to-end multiresource query in an MRQ agent.
	OpMRQRun = "mrq.run"
	// OpMRQPlan is an MRQ run building its query plan before fan-out:
	// the broker searches for every class, then the planner's decisions
	// (cost ranking, semi-join and aggregate pushdown) when it is on.
	OpMRQPlan = "mrq.plan"
	// OpMRQAssemble is one class's fragment fetch and merge.
	OpMRQAssemble = "mrq.assemble"
	// OpMRQFetch is one fragment fetch against one resource agent inside
	// an MRQ fan-out; the spans under an mrq.assemble show its shape.
	OpMRQFetch = "mrq.fetch"
	// OpRetryAttempt marks a resilience-policy retry: the span's agent is
	// the peer being retried and its error notes the attempt number.
	OpRetryAttempt = "retry.attempt"
	// OpFailover marks an MRQ fragment recovered through a redundant
	// advertisement after its primary resource failed.
	OpFailover = "failover"
	// OpUserSubmit is a user agent's end-to-end SQL submission.
	OpUserSubmit = "useragent.submit"
	// OpSubscribeEval is a resource agent re-evaluating one standing
	// query after a data change (the subscribe conversation's push side).
	OpSubscribeEval = "subscribe.eval"
)

// SpanRecorder consumes the entries of traced conversations: completed
// timing spans, decisions and drop markers, each under its trace ID.
// Implementations must be safe for concurrent use and must not block:
// RecordSpan is called on transport and dispatch hot paths.
type SpanRecorder interface {
	RecordSpan(traceID string, s kqml.TraceSpan)
}

// recorderBox wraps the interface so atomic.Pointer has one concrete type.
type recorderBox struct{ r SpanRecorder }

var activeRecorder atomic.Pointer[recorderBox]

// SetSpanRecorder installs r as the process-wide span recorder and returns
// the previous one (nil if none). Passing nil uninstalls. Untraced
// processes never install one, and RecordSpan is then a single atomic load.
func SetSpanRecorder(r SpanRecorder) SpanRecorder {
	var next *recorderBox
	if r != nil {
		next = &recorderBox{r: r}
	}
	prev := activeRecorder.Swap(next)
	if prev == nil {
		return nil
	}
	return prev.r
}

// SpanRecorderActive reports whether a span recorder is installed — a
// cheap guard for call sites that would otherwise loop or allocate to
// build spans nobody collects.
func SpanRecorderActive() bool {
	return activeRecorder.Load() != nil
}

// RecordSpan hands one trace entry to the installed recorder; it is a
// no-op when none is installed. Entries without a trace ID are ignored.
func RecordSpan(traceID string, s kqml.TraceSpan) {
	if traceID == "" {
		return
	}
	if box := activeRecorder.Load(); box != nil {
		box.r.RecordSpan(traceID, s)
	}
}

// traceIDKey is the context key carrying a conversation trace ID.
type traceIDKey struct{}

// WithTraceID returns a context carrying the trace ID, so a conversation's
// identity survives call chains (MRQ handle → Run → per-class assembly)
// without widening every signature.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID from the context, "" if untraced.
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}
