package agent

import (
	"context"
	"testing"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/transport"
)

func startBroker(t *testing.T, tr transport.Transport, name string) *broker.Broker {
	t.Helper()
	b, err := broker.New(broker.Config{
		Name:      name,
		Transport: tr,
		World:     ontology.NewWorld(ontology.Generic()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Stop() })
	return b
}

func newAgent(t *testing.T, tr transport.Transport, name string, redundancy int, brokers ...string) *Base {
	t.Helper()
	a, err := New(Config{
		Name:         name,
		Transport:    tr,
		KnownBrokers: brokers,
		Redundancy:   redundancy,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.AdBuilder = func(addr string) *ontology.Advertisement {
		return &ontology.Advertisement{
			Name: name, Address: addr, Type: ontology.TypeResource,
			ContentLanguages: []string{ontology.LangSQL2},
			Content:          []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}},
		}
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })
	return a
}

func TestAdvertiseRespectsRedundancy(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	b3 := startBroker(t, tr, "B3")

	a := newAgent(t, tr, "RA", 2, b1.Addr(), b2.Addr(), b3.Addr())
	n, err := a.Advertise(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("connected = %d, want redundancy 2", n)
	}
	// The walk is in known-list order: B1 and B2 hold the ad, B3 not.
	if !b1.Repository().Contains("RA") || !b2.Repository().Contains("RA") {
		t.Error("first two brokers should hold the advertisement")
	}
	if b3.Repository().Contains("RA") {
		t.Error("third broker should not have been contacted")
	}
	if got := a.ConnectedBrokers(); len(got) != 2 {
		t.Errorf("connected list = %v", got)
	}
	if a.Dormant() {
		t.Error("connected agent should not be dormant")
	}
}

func TestAdvertiseSkipsDeadBroker(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	deadAddr := b1.Addr()
	b1.Stop()

	a := newAgent(t, tr, "RA", 1, deadAddr, b2.Addr())
	n, err := a.Advertise(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("connected = %d, want 1 (the live broker)", n)
	}
	if !b2.Repository().Contains("RA") {
		t.Error("live broker should hold the advertisement")
	}
}

func TestDormantWhenNoBrokers(t *testing.T) {
	tr := transport.NewInProc()
	a := newAgent(t, tr, "RA", 1, "inproc://nobody")
	n, err := a.Advertise(context.Background())
	if n != 0 {
		t.Fatalf("connected = %d, want 0", n)
	}
	if err == nil {
		t.Error("total failure should surface the last error")
	}
	if !a.Dormant() {
		t.Error("agent with no brokers should be dormant")
	}
}

func TestCheckBrokersDetectsDeadBrokerAndReadvertises(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	a := newAgent(t, tr, "RA", 1, b1.Addr(), b2.Addr())
	if n, _ := a.Advertise(context.Background()); n != 1 {
		t.Fatal("setup: expected 1 connection")
	}
	if b2.Repository().Contains("RA") {
		t.Fatal("setup: RA should only be at B1")
	}
	// B1 dies; the next ping cycle must fail over to B2.
	b1.Stop()
	n := a.CheckBrokers(context.Background())
	if n != 1 {
		t.Fatalf("after failover, connected = %d", n)
	}
	if !b2.Repository().Contains("RA") {
		t.Error("agent should have re-advertised to B2")
	}
	got := a.ConnectedBrokers()
	if len(got) != 1 || got[0] != b2.Addr() {
		t.Errorf("connected list = %v, want only B2", got)
	}
}

func TestCheckBrokersDetectsForgottenAdvertisement(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	a := newAgent(t, tr, "RA", 1, b1.Addr())
	if _, err := a.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The broker restarts with amnesia: remove the ad behind the
	// agent's back.
	b1.Repository().Remove("RA")
	n := a.CheckBrokers(context.Background())
	if n != 1 {
		t.Fatalf("connected = %d, want re-advertised 1", n)
	}
	if !b1.Repository().Contains("RA") {
		t.Error("agent should have re-advertised after the broker forgot it")
	}
}

func TestUnadvertise(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	a := newAgent(t, tr, "RA", 1, b1.Addr())
	if _, err := a.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Unadvertise(context.Background())
	if b1.Repository().Contains("RA") {
		t.Error("unadvertise should remove the ad from the broker")
	}
	if len(a.ConnectedBrokers()) != 0 {
		t.Error("unadvertise should clear the connected list")
	}
}

func TestQueryBrokersFailsOver(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	target := newAgent(t, tr, "Target", 1, b2.Addr())
	if _, err := target.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	asker := newAgent(t, tr, "Asker", 2, b1.Addr(), b2.Addr())
	if _, err := asker.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	b1.Stop()
	br, err := asker.QueryBrokers(context.Background(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	})
	if err != nil {
		t.Fatalf("QueryBrokers should fail over to B2: %v", err)
	}
	found := false
	for _, ad := range br.Matches {
		if ad.Name == "Target" {
			found = true
		}
	}
	if !found {
		t.Errorf("matches = %v, want Target", br.Matches)
	}
}

func TestBasePingReply(t *testing.T) {
	tr := transport.NewInProc()
	a := newAgent(t, tr, "RA", 1)
	msg := kqml.New(kqml.Ping, "someone", &kqml.PingContent{AgentName: "RA"})
	reply, err := tr.Call(context.Background(), a.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	var pr kqml.PingReply
	if err := reply.DecodeContent(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Known {
		t.Error("base agent should answer pings affirmatively")
	}
}

func TestBaseSorryWithoutHandler(t *testing.T) {
	tr := transport.NewInProc()
	a := newAgent(t, tr, "RA", 1)
	reply, err := tr.Call(context.Background(), a.Addr(), kqml.New(kqml.AskAll, "x", &kqml.SQLQuery{SQL: "s"}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Sorry {
		t.Errorf("handlerless agent replied %s, want sorry", reply.Performative)
	}
}

func TestAddKnownBrokerDeduplicates(t *testing.T) {
	tr := transport.NewInProc()
	a := newAgent(t, tr, "RA", 1, "inproc://b1")
	a.AddKnownBroker("inproc://b1")
	a.AddKnownBroker("inproc://b2")
	if got := a.KnownBrokers(); len(got) != 2 {
		t.Errorf("known = %v", got)
	}
}

func TestHeartbeatFailsOverAutomatically(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	a := newAgent(t, tr, "RA", 1, b1.Addr(), b2.Addr())
	if n, _ := a.Advertise(context.Background()); n != 1 {
		t.Fatal("setup: expected 1 connection")
	}
	stop := a.StartHeartbeat(5 * time.Millisecond)
	defer stop()
	b1.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b2.Repository().Contains("RA") {
			return // the heartbeat re-advertised to B2
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("heartbeat never re-advertised to the surviving broker")
}

func TestHeartbeatStopIsIdempotent(t *testing.T) {
	tr := transport.NewInProc()
	a := newAgent(t, tr, "RA", 1)
	stop := a.StartHeartbeat(time.Hour)
	stop()
	stop() // second call must not panic or block
}

func TestRandomizedBrokerChoiceSpreadsQueries(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	target := newAgent(t, tr, "Target", 2, b1.Addr(), b2.Addr())
	if _, err := target.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	asker, err := New(Config{
		Name: "Asker", Transport: tr,
		KnownBrokers:          []string{b1.Addr(), b2.Addr()},
		Redundancy:            2,
		RandomizeBrokerChoice: true,
		RandomSeed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := asker.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { asker.Stop() })
	if _, err := asker.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A FollowLocal query with constraints is asked every time: no located
	// set answers it.
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Constraints: constraint.MustParse("C2.a > 0"),
		Policy:      ontology.SearchPolicy{HopCount: 1, Follow: ontology.FollowLocal}}
	for i := 0; i < 40; i++ {
		if _, err := asker.QueryBrokers(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	s1 := b1.Stats.QueriesServed.Load()
	s2 := b2.Stats.QueriesServed.Load()
	if s1 == 0 || s2 == 0 {
		t.Errorf("randomized choice should hit both brokers: B1=%d B2=%d", s1, s2)
	}
}

// TestQueryBrokersTracedCollectsBrokerSpans is the end-to-end trace
// acceptance check: a query that B1 must forward to B2 comes back with a
// trace carrying both brokers' spans, hop-annotated, plus the asker's
// dispatch span preserved across the two transport legs.
func TestQueryBrokersTracedCollectsBrokerSpans(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	// The resource is known only to B2, so B1 can answer only by
	// forwarding.
	res := newAgent(t, tr, "R1", 1, b2.Addr())
	if _, err := res.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	asker := newAgent(t, tr, "Asker", 1, b1.Addr())
	if _, err := asker.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	br, trace, err := asker.QueryBrokersTraced(context.Background(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Policy: ontology.SearchPolicy{HopCount: 2, Follow: ontology.FollowAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range br.Matches {
		if m.Name == "R1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("traced query should still find R1 via forwarding; matches: %v", br.Matches)
	}
	if trace.ID == "" {
		t.Error("trace should carry a non-empty ID")
	}
	spans := trace.BrokerSpans()
	if len(spans) < 2 {
		t.Fatalf("trace should have >= 2 broker spans, got %d: %+v", len(spans), trace.Spans)
	}
	// Spans come back innermost first: the forwarded-to broker (hop 1),
	// then the entry broker (hop 0).
	byAgent := make(map[string]kqml.TraceSpan)
	for _, s := range spans {
		byAgent[s.Agent] = s
	}
	if s, ok := byAgent["B1"]; !ok || s.Hop != 0 {
		t.Errorf("B1 span missing or wrong hop: %+v", byAgent)
	}
	if s, ok := byAgent["B2"]; !ok || s.Hop != 1 {
		t.Errorf("B2 span missing or wrong hop: %+v", byAgent)
	}
	if last := spans[len(spans)-1]; last.Agent != "B1" {
		t.Errorf("entry broker should be the last broker span, got %s", last.Agent)
	}
}

// TestDispatchStampsTraceSpan checks the base agent's side of tracing: a
// traced request to a plain agent comes back with the agent's dispatch
// span appended, and an untraced request stays untraced.
func TestDispatchStampsTraceSpan(t *testing.T) {
	tr := transport.NewInProc()
	a := newAgent(t, tr, "R1", 1)
	msg := kqml.New(kqml.Ping, "caller", &kqml.PingContent{AgentName: "R1"})
	msg.TraceID = "abc123"
	reply, err := tr.Call(context.Background(), a.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.TraceID != "abc123" {
		t.Errorf("reply trace ID = %q, want abc123", reply.TraceID)
	}
	if len(reply.Trace) != 1 || reply.Trace[0].Agent != "R1" || reply.Trace[0].Op != "dispatch.ping" {
		t.Errorf("reply trace = %+v, want one dispatch.ping span from R1", reply.Trace)
	}
	untraced := kqml.New(kqml.Ping, "caller", &kqml.PingContent{AgentName: "R1"})
	reply, err = tr.Call(context.Background(), a.Addr(), untraced)
	if err != nil {
		t.Fatal(err)
	}
	if reply.TraceID != "" || len(reply.Trace) != 0 {
		t.Errorf("untraced request must stay untraced, got ID=%q trace=%+v", reply.TraceID, reply.Trace)
	}
}
