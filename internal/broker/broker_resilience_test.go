package broker

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience"
	"infosleuth/internal/resilience/faulty"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// TestForwardRecordsDegradedPeerAndSkipsOpenCircuit pins the broker's
// degradation contract: a peer that fails a forward is reported in
// BrokerReply.Degraded and trips its circuit breaker, and subsequent
// searches skip the peer entirely — no transport call — while still
// reporting the narrowed search.
func TestForwardRecordsDegradedPeerAndSkipsOpenCircuit(t *testing.T) {
	tr := transport.NewInProc()
	ft := faulty.Wrap(tr)
	policy := resilience.New(resilience.Options{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	b1 := newTestBroker(t, ft, "Broker1", func(c *Config) {
		c.CallPolicy = policy
		c.CallTimeout = time.Second
	})
	b2 := newTestBroker(t, tr, "Broker2")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	advertiseTo(t, tr, b2.Addr(), resourceAd("RA-remote", "C2"))
	b2Addr := b2.Addr()
	b2.Stop()

	q := &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
		Policy:   ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowAll},
	}
	br := askBroker(t, tr, b1.Addr(), q)
	if len(br.Matches) != 0 {
		t.Errorf("matches = %v, want none with the peer down", matchNames(br))
	}
	if len(br.Degraded) != 1 || br.Degraded[0] != "Broker2" {
		t.Fatalf("degraded = %v, want [Broker2]", br.Degraded)
	}
	if !policy.BreakerOpen(b2Addr) {
		t.Fatal("failed forward did not open the peer's circuit")
	}

	calls := ft.Calls(b2Addr)
	br = askBroker(t, tr, b1.Addr(), q)
	if len(br.Degraded) != 1 || br.Degraded[0] != "Broker2" {
		t.Fatalf("open-circuit search degraded = %v, want [Broker2]", br.Degraded)
	}
	if got := ft.Calls(b2Addr); got != calls {
		t.Errorf("open circuit still called the peer: calls %d -> %d", calls, got)
	}
}

// TestHealthySearchReportsNoDegradation keeps the common case clean: with
// every peer reachable the reply carries no degradation notes, policy or
// not.
func TestHealthySearchReportsNoDegradation(t *testing.T) {
	tr := transport.NewInProc()
	policy := resilience.New(resilience.Options{MaxAttempts: 2, BreakerThreshold: 3})
	b1 := newTestBroker(t, tr, "Broker1", func(c *Config) { c.CallPolicy = policy })
	b2 := newTestBroker(t, tr, "Broker2")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	advertiseTo(t, tr, b2.Addr(), resourceAd("RA-remote", "C2"))

	br := askBroker(t, tr, b1.Addr(), &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
		Policy:   ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowAll},
	})
	if len(br.Matches) != 1 {
		t.Fatalf("matches = %v, want the remote resource", matchNames(br))
	}
	if len(br.Degraded) != 0 {
		t.Errorf("healthy search degraded = %v, want none", br.Degraded)
	}
}

// spanLog is a telemetry.SpanRecorder that keeps every entry it is handed
// with its trace ID.
type spanLog struct {
	mu      sync.Mutex
	entries []loggedSpan
}

type loggedSpan struct {
	traceID string
	kqml.TraceSpan
}

func (l *spanLog) RecordSpan(traceID string, s kqml.TraceSpan) {
	l.mu.Lock()
	l.entries = append(l.entries, loggedSpan{traceID, s})
	l.mu.Unlock()
}

// agents lists, in order, the agents of the trace's spans with the op.
func (l *spanLog) agents(traceID, op string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, e := range l.entries {
		if e.traceID == traceID && e.Op == op {
			out = append(out, e.Agent)
		}
	}
	return out
}

// TestRetriedForwardIsTraced: a traced query's trace ID rides the context
// the entry broker forwards under, so a forward the call policy retries
// records its retry.attempt span in the query's trace.
func TestRetriedForwardIsTraced(t *testing.T) {
	tr := transport.NewInProc()
	ft := faulty.Wrap(tr)
	b1 := newTestBroker(t, ft, "Broker1", func(c *Config) {
		c.CallPolicy = resilience.New(resilience.Options{
			MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1,
		})
	})
	b2 := newTestBroker(t, tr, "Broker2")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	advertiseTo(t, tr, b2.Addr(), resourceAd("RA-remote", "C2"))

	log := &spanLog{}
	prev := telemetry.SetSpanRecorder(log)
	defer telemetry.SetSpanRecorder(prev)
	ft.Script(b2.Addr(), faulty.Drop())
	msg := kqml.New(kqml.AskAll, "tester", &kqml.BrokerQuery{Query: &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Policy: ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowAll},
	}})
	msg.Ontology = kqml.ServiceOntology
	msg.TraceID = "forward-trace"
	reply, err := tr.Call(context.Background(), b1.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	var br kqml.BrokerReply
	if err := reply.DecodeContent(&br); err != nil {
		t.Fatal(err)
	}
	if names := matchNames(&br); len(names) != 1 || names[0] != "RA-remote" {
		t.Fatalf("matches = %v, want the retried forward's [RA-remote]", names)
	}
	if got := log.agents("forward-trace", telemetry.OpRetryAttempt); len(got) != 1 || got[0] != b2.Addr() {
		t.Errorf("retry.attempt spans = %v, want one for %s", got, b2.Addr())
	}
	got := log.agents("forward-trace", kqml.OpBrokerSearch)
	if !slices.Contains(got, "Broker1") || !slices.Contains(got, "Broker2") {
		t.Errorf("broker.search spans from %v, want both brokers", got)
	}
}
