package provenance

import (
	"context"
	"sync"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
)

type capture struct {
	mu      sync.Mutex
	entries map[string][]kqml.TraceSpan
}

func (c *capture) RecordSpan(traceID string, s kqml.TraceSpan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string][]kqml.TraceSpan)
	}
	c.entries[traceID] = append(c.entries[traceID], s)
}

func TestForGating(t *testing.T) {
	prev := telemetry.SetSpanRecorder(nil)
	defer telemetry.SetSpanRecorder(prev)

	traced := telemetry.WithTraceID(context.Background(), "t1")
	if em := For(traced); em != nil {
		t.Fatalf("no recorder, no collector: For should be nil")
	}
	cap := &capture{}
	telemetry.SetSpanRecorder(cap)
	if em := For(context.Background()); em != nil {
		t.Fatalf("untraced: For should be nil even with a recorder")
	}
	if em := For(traced); em == nil {
		t.Fatalf("recorder installed: For should be non-nil")
	}
	telemetry.SetSpanRecorder(nil)
	ctx, _ := Receive(&kqml.Message{TraceID: "t1"})
	if em := For(ctx); em == nil {
		t.Fatalf("collector on ctx: For should be non-nil without a recorder")
	}
}

// TestReceive: a traced message yields a context carrying its trace ID and
// a collector that the context's emitters feed; an untraced one yields a
// bare context and no collector.
func TestReceive(t *testing.T) {
	prev := telemetry.SetSpanRecorder(nil)
	defer telemetry.SetSpanRecorder(prev)

	ctx, col := Receive(&kqml.Message{})
	if col != nil || telemetry.TraceIDFrom(ctx) != "" || CollectorFrom(ctx) != nil {
		t.Fatalf("untraced message: collector %v, trace %q", col, telemetry.TraceIDFrom(ctx))
	}
	ctx, col = Receive(&kqml.Message{TraceID: "t7"})
	if col == nil || CollectorFrom(ctx) != col {
		t.Fatalf("traced message: collector %v not on the context", col)
	}
	if id := telemetry.TraceIDFrom(ctx); id != "t7" {
		t.Fatalf("traced message: context trace ID %q, want t7", id)
	}
	For(ctx).Emit(kqml.ProvEvent{Kind: kqml.ProvForward, Agent: "B1", Forward: &kqml.ForwardDecision{Peer: "B2"}})
	if n := len(col.Entries()); n != 1 {
		t.Fatalf("collector got %d entries, want 1", n)
	}
}

func TestEmitFansOut(t *testing.T) {
	cap := &capture{}
	prev := telemetry.SetSpanRecorder(cap)
	defer telemetry.SetSpanRecorder(prev)

	ctx, col := Receive(&kqml.Message{TraceID: "t9"})
	em := For(ctx)
	em.Emit(kqml.ProvEvent{Kind: kqml.ProvForward, Agent: "B1",
		Forward: &kqml.ForwardDecision{Peer: "B2"}})

	if got := len(cap.entries["t9"]); got != 1 {
		t.Fatalf("recorder got %d entries, want 1", got)
	}
	if got := len(col.Entries()); got != 1 {
		t.Fatalf("collector got %d entries, want 1", got)
	}
	d := col.Entries()[0]
	if d.Op != kqml.OpDecision || d.Agent != "B1" || d.Start == 0 || d.Decision == nil || d.Decision.Forward.Peer != "B2" {
		t.Fatalf("decision entry = %+v", d)
	}
	if cap.entries["t9"][0] != d {
		t.Fatalf("recorder and collector got different entries: %+v vs %+v", cap.entries["t9"][0], d)
	}
}

func TestCollectReply(t *testing.T) {
	prev := telemetry.SetSpanRecorder(nil)
	defer telemetry.SetSpanRecorder(prev)

	ctx, col := Receive(&kqml.Message{TraceID: "t1"})
	reply := &kqml.Message{Trace: []kqml.TraceSpan{
		{Op: kqml.OpTraceDropped, Dropped: 4},
		Decision(kqml.ProvEvent{Kind: kqml.ProvMatch, Agent: "B2", Match: &kqml.MatchDecision{Ad: "R1", Accepted: true}}),
		{Agent: "B2", Op: kqml.OpBrokerSearch, Start: 1, DurationMicros: 5},
	}}
	CollectReply(ctx, reply)
	got := col.Entries()
	if len(got) != 2 || got[0].Op != kqml.OpTraceDropped || got[0].Dropped != 4 || got[1].Decision == nil {
		t.Fatalf("collector holds %+v, want the marker and the decision, not the timing span", got)
	}
	// No collector: must not panic.
	CollectReply(context.Background(), reply)
}

func TestCollectorCaps(t *testing.T) {
	col := &Collector{}
	for i := 0; i < kqml.MaxTraceSpans+20; i++ {
		col.Add(Decision(kqml.ProvEvent{Kind: kqml.ProvFetch, Fetch: &kqml.FetchReport{Resource: "R"}}))
	}
	entries := col.Entries()
	if len(entries) != kqml.MaxTraceSpans {
		t.Fatalf("collector holds %d entries, want cap %d", len(entries), kqml.MaxTraceSpans)
	}
	if entries[0].Op != kqml.OpTraceDropped {
		t.Fatalf("capped collector should lead with a dropped marker")
	}
}

func TestDecisionStartsAreUnique(t *testing.T) {
	seen := make(map[int64]bool)
	ev := kqml.ProvEvent{Kind: kqml.ProvMatch, Agent: "B1", Match: &kqml.MatchDecision{Ad: "R1"}}
	for i := 0; i < 10000; i++ {
		d := Decision(ev)
		if seen[d.Start] {
			t.Fatalf("decision %d reused start %d", i, d.Start)
		}
		seen[d.Start] = true
	}
}

// TestEqualDecisionsBothRecorded: two searches in one trace that emit the
// same match decision are two decisions, while each one's envelope mirror
// collapses into its local record.
func TestEqualDecisionsBothRecorded(t *testing.T) {
	rec := recorder.New()
	prev := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prev)

	ctx, col := Receive(&kqml.Message{TraceID: "t1"})
	em := For(ctx)
	for i := 0; i < 2; i++ {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvMatch, Agent: "B1",
			Match: &kqml.MatchDecision{Ad: "R1", Engine: "direct", Accepted: true, Specificity: 2}})
	}
	// The reply envelope carries both back; the transport mirrors them.
	for _, s := range col.Entries() {
		telemetry.RecordSpan("t1", s)
	}
	ex, ok := rec.Explain("t1")
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(ex.Matches) != 2 {
		t.Fatalf("explain holds %d matches, want 2 (two emissions, each mirrored once)", len(ex.Matches))
	}
}
