package transport

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// recorded is one entry a collector received, with its trace ID.
type recorded struct {
	traceID string
	kqml.TraceSpan
}

// collector is a minimal telemetry.SpanRecorder for tests.
type collector struct {
	mu    sync.Mutex
	spans []recorded
}

func (c *collector) RecordSpan(traceID string, s kqml.TraceSpan) {
	c.mu.Lock()
	c.spans = append(c.spans, recorded{traceID, s})
	c.mu.Unlock()
}

func (c *collector) byOp(op string) []recorded {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []recorded
	for _, s := range c.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// TestCallRecordsTraceSpans: a traced Call records the client-side
// rpc.call span and mirrors the spans the reply envelope carried back.
func TestCallRecordsTraceSpans(t *testing.T) {
	col := &collector{}
	prev := telemetry.SetSpanRecorder(col)
	defer telemetry.SetSpanRecorder(prev)

	tr := NewInProc()
	l, err := tr.Listen("inproc://traced", func(msg *kqml.Message) *kqml.Message {
		reply := kqml.New(kqml.Tell, "traced", &kqml.PingReply{Known: true})
		reply.InReplyTo = msg.ReplyWith
		kqml.PropagateTrace(msg, reply, kqml.TraceSpan{
			Agent: "traced", Op: kqml.OpBrokerSearch, Hop: 2, Start: 42, DurationMicros: 7, Err: "boom",
		})
		return reply
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	msg := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "q"})
	msg.TraceID = "0123456789abcdef"
	if _, err := tr.Call(context.Background(), "inproc://traced", msg); err != nil {
		t.Fatal(err)
	}

	calls := col.byOp(telemetry.OpRPCCall)
	if len(calls) != 1 {
		t.Fatalf("recorded %d rpc.call spans, want 1", len(calls))
	}
	if c := calls[0]; c.traceID != msg.TraceID || c.Agent != "caller" || c.Start == 0 || c.Err != "" {
		t.Errorf("rpc.call span = %+v", c)
	}
	mirrored := col.byOp(kqml.OpBrokerSearch)
	if len(mirrored) != 1 {
		t.Fatalf("recorded %d mirrored envelope spans, want 1", len(mirrored))
	}
	m := mirrored[0]
	if m.traceID != msg.TraceID || m.Agent != "traced" || m.Hop != 2 || m.Start != 42 ||
		m.DurationMicros != 7 || m.Err != "boom" {
		t.Errorf("mirrored span lost fields: %+v", m)
	}
}

// TestCallWithoutTraceIDRecordsNothing: untraced traffic must not touch
// the recorder at all.
func TestCallWithoutTraceIDRecordsNothing(t *testing.T) {
	col := &collector{}
	prev := telemetry.SetSpanRecorder(col)
	defer telemetry.SetSpanRecorder(prev)

	tr := NewInProc()
	l, err := tr.Listen("inproc://untraced", echoHandler("untraced"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	testCall(t, tr, "inproc://untraced")
	if n := col.len(); n != 0 {
		t.Errorf("untraced call recorded %d spans, want 0", n)
	}
}

// TestFailedCallRecordsErrSpan: an unreachable peer still yields the
// client-side span, with the error attached.
func TestFailedCallRecordsErrSpan(t *testing.T) {
	col := &collector{}
	prev := telemetry.SetSpanRecorder(col)
	defer telemetry.SetSpanRecorder(prev)

	tr := NewInProc()
	msg := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "q"})
	msg.TraceID = "0123456789abcdef"
	if _, err := tr.Call(context.Background(), "inproc://nobody-home", msg); err == nil {
		t.Fatal("expected unreachable error")
	}
	calls := col.byOp(telemetry.OpRPCCall)
	if len(calls) != 1 || calls[0].Err == "" {
		t.Fatalf("failed call spans = %+v, want one rpc.call with Err set", calls)
	}
}

// TestRecordTraceSpansFieldMapping: every entry a traced reply carries —
// a drop marker, a decision, a timing span — reaches the recorder as it
// rode the envelope, under the conversation's trace ID.
func TestRecordTraceSpansFieldMapping(t *testing.T) {
	col := &collector{}
	prev := telemetry.SetSpanRecorder(col)
	defer telemetry.SetSpanRecorder(prev)

	carried := []kqml.TraceSpan{
		{Op: kqml.OpTraceDropped, Dropped: 5},
		{Agent: "b", Op: kqml.OpDecision, Start: 9, Decision: &kqml.ProvEvent{Kind: kqml.ProvForward, Agent: "b",
			Forward: &kqml.ForwardDecision{Peer: "c"}}},
		{Agent: "b", Op: kqml.OpResourceQuery, Hop: 1, Start: 10, DurationMicros: 3},
	}
	tr := NewInProc()
	l, err := tr.Listen("inproc://carrier", func(msg *kqml.Message) *kqml.Message {
		reply := kqml.New(kqml.Tell, "b", &kqml.PingReply{Known: true})
		reply.TraceID, reply.Trace = msg.TraceID, carried
		return reply
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msg := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "q"})
	msg.TraceID = "tid"
	if _, err := tr.Call(context.Background(), "inproc://carrier", msg); err != nil {
		t.Fatal(err)
	}
	if col.len() != 1+len(carried) {
		t.Fatalf("recorded %d entries, want the rpc.call plus %d carried", col.len(), len(carried))
	}
	for _, want := range carried {
		got := col.byOp(want.Op)
		if len(got) != 1 || got[0].traceID != "tid" || !reflect.DeepEqual(got[0].TraceSpan, want) {
			t.Errorf("%s entry recorded as %+v, want %+v under tid", want.Op, got, want)
		}
	}
}

// TestForwardLoopCannotBloatFrames is the frame-size regression for the
// envelope cap: a pathological forwarding loop that stamps spans forever
// must converge to MaxTraceSpans spans, keeping the marshaled frame far
// below the transport's MaxFrame limit.
func TestForwardLoopCannotBloatFrames(t *testing.T) {
	msg := kqml.New(kqml.Tell, "b", &kqml.PingReply{Known: true})
	msg.TraceID = "0123456789abcdef"
	longErr := strings.Repeat("e", 100)
	for i := 0; i < 10000; i++ {
		msg.Trace = kqml.AppendSpans(msg.Trace, kqml.TraceSpan{
			Agent: "Broker1", Op: kqml.OpBrokerSearch, Hop: i % 5,
			Start: int64(i + 1), DurationMicros: 99, Err: longErr,
		})
	}
	if len(msg.Trace) > kqml.MaxTraceSpans {
		t.Fatalf("envelope holds %d spans, cap is %d", len(msg.Trace), kqml.MaxTraceSpans)
	}
	data, err := kqml.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= MaxFrame {
		t.Fatalf("frame is %d bytes, exceeds MaxFrame %d", len(data), MaxFrame)
	}
	if len(data) > 64<<10 {
		t.Errorf("capped trace frame is %d bytes; expected well under 64KiB", len(data))
	}
	// The marker accounts for everything evicted.
	if msg.Trace[0].Op != kqml.OpTraceDropped || msg.Trace[0].Dropped != 10000-(kqml.MaxTraceSpans-1) {
		t.Errorf("marker = %+v, want %d dropped", msg.Trace[0], 10000-(kqml.MaxTraceSpans-1))
	}
}

// TestCallStampsTraceFromContext: Call carries the context's trace ID onto
// an envelope that has none, where the handler sees it, and leaves an
// envelope that carries its own ID, or a call on an untraced context, as
// it was.
func TestCallStampsTraceFromContext(t *testing.T) {
	tr := NewInProc()
	var seen []string
	l, err := tr.Listen("inproc://stamped", func(msg *kqml.Message) *kqml.Message {
		seen = append(seen, msg.TraceID)
		return kqml.New(kqml.Tell, "stamped", &kqml.PingReply{Known: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	traced := telemetry.WithTraceID(context.Background(), "from-context")
	fresh := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "q"})
	relayed := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "q"})
	relayed.TraceID = "own"
	untraced := kqml.New(kqml.AskAll, "caller", &kqml.SQLQuery{SQL: "q"})
	for _, c := range []struct {
		ctx context.Context
		msg *kqml.Message
	}{{traced, fresh}, {traced, relayed}, {context.Background(), untraced}} {
		if _, err := tr.Call(c.ctx, "inproc://stamped", c.msg); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"from-context", "own", ""}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("handler saw trace IDs %q, want %q", seen, want)
	}
}
