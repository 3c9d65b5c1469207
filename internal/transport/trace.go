package transport

import (
	"context"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// This file is the bridge between KQML conversation tracing and the
// process-local flight recorder, and between a trace ID's two carriers:
// the context inside a process and the envelope on the wire. The kqml
// package stays telemetry-free (spans and decisions ride reply envelopes
// as plain data); transport stamps every client call with its own
// rpc.call span and hands every entry a traced reply carried back to the
// recorder. Because every inter-agent exchange goes through Call,
// ingesting reply envelopes here covers broker forwards, MRQ fan-out and
// resource fetches without per-caller wiring; the recorder deduplicates
// an entry that is also recorded where it was produced.

// stampTrace puts the context's trace ID on an outgoing envelope that has
// none, where the ID crosses from context to wire (provenance.Receive
// crosses back). An untraced call pays one context lookup and writes
// nothing.
func stampTrace(ctx context.Context, msg *kqml.Message) {
	if id := telemetry.TraceIDFrom(ctx); id != "" && msg.TraceID == "" {
		msg.TraceID = id
	}
}

// recordCallTrace emits the client-side rpc.call span for a traced call
// and ingests whatever entries the reply envelope carried back.
func recordCallTrace(msg, reply *kqml.Message, start time.Time, err error) {
	if msg == nil || msg.TraceID == "" || !telemetry.SpanRecorderActive() {
		return
	}
	span := kqml.TraceSpan{
		Agent:          msg.Sender,
		Op:             telemetry.OpRPCCall,
		Start:          start.UnixNano(),
		DurationMicros: time.Since(start).Microseconds(),
	}
	if err != nil {
		span.Err = err.Error()
	}
	telemetry.RecordSpan(msg.TraceID, span)
	if err == nil && reply != nil && reply.TraceID == msg.TraceID {
		for _, s := range reply.Trace {
			telemetry.RecordSpan(reply.TraceID, s)
		}
	}
}
