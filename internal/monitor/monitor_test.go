package monitor

import (
	"context"
	"testing"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/transport"
)

// setup builds broker + one resource agent with a C2 table + a monitor.
func setup(t *testing.T, opts ...Option) (*Agent, *resource.Agent, transport.Transport) {
	t.Helper()
	tr := transport.NewInProc()
	b, err := broker.New(broker.Config{
		Name: "Broker1", Transport: tr,
		World: ontology.NewWorld(ontology.Generic()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Stop() })

	db := relational.NewDatabase()
	if _, err := relational.GenerateGeneric(db, "C2", 5, 1); err != nil {
		t.Fatal(err)
	}
	ra, err := resource.New(resource.Config{
		Name: "RA", Transport: tr, KnownBrokers: []string{b.Addr()},
		DB:       db,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Stop() })
	if _, err := ra.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}

	m, err := New(Config{
		Name: "Monitor", Transport: tr, KnownBrokers: []string{b.Addr()},
		Ontology: "generic",
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Stop() })
	return m, ra, tr
}

func flush(t *testing.T, ra *resource.Agent) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ra.FlushNotifications(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestWatchAndNotify(t *testing.T) {
	ctx := context.Background()
	m, ra, _ := setup(t)

	handles, err := m.Watch(ctx, &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	}, "SELECT * FROM C2 WHERE a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 1 || m.Watches() != 1 {
		t.Fatalf("watching %d resources", len(handles))
	}
	h := handles[0]
	if h.Resource != "RA" || h.SubscriptionID == "" || h.Address == "" {
		t.Fatalf("handle = %+v", h)
	}
	if len(ra.Subscriptions()) != 1 {
		t.Fatalf("resource holds %d subscriptions", len(ra.Subscriptions()))
	}

	// No change yet: the standing query re-evaluates and sends nothing.
	if matched, _ := ra.NotifyChange(ctx, resource.Change{Class: "C2"}); matched != 1 {
		t.Errorf("whole-class change enqueued %d subscriptions, want 1", matched)
	}
	flush(t, ra)
	if len(m.Events()) != 0 {
		t.Fatal("spurious event")
	}

	// Insert a row: the monitor gets an update.
	err = ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-new"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, ra)
	events := m.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if events[0].Resource != "RA" || len(events[0].Result.Rows) != 6 {
		t.Errorf("event = %+v", events[0])
	}
	if events[0].Seq == 0 || events[0].UpdateSeq == 0 {
		t.Errorf("event missing sequence numbers: %+v", events[0])
	}

	// Unwatch: further changes are silent.
	m.Unwatch(ctx)
	if m.Watches() != 0 || len(ra.Subscriptions()) != 0 {
		t.Error("unwatch did not clear subscriptions")
	}
	err = ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-new2"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, ra)
	if len(m.Events()) != 1 {
		t.Error("event arrived after unwatch")
	}
}

func TestWatchHandleCancel(t *testing.T) {
	ctx := context.Background()
	m, ra, _ := setup(t)
	handles, err := m.Watch(ctx, &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	}, "SELECT * FROM C2")
	if err != nil {
		t.Fatal(err)
	}
	if err := handles[0].Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Watches() != 0 || len(ra.Subscriptions()) != 0 {
		t.Error("cancel did not tear the subscription down")
	}
	// Cancelling twice is a no-op.
	if err := handles[0].Cancel(ctx); err != nil {
		t.Errorf("double cancel: %v", err)
	}
}

func TestEventRingBoundsAndPaging(t *testing.T) {
	ctx := context.Background()
	m, ra, _ := setup(t, WithEventCapacity(3))
	if _, err := m.Watch(ctx, &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	}, "SELECT * FROM C2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := ra.InsertRow(ctx, "C2", relational.Row{
			relational.Str("C2-r" + string(rune('a'+i))), relational.Num(float64(i)),
			relational.Num(0), relational.Num(0), relational.Num(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		flush(t, ra) // sequential: one notification per insert
	}
	events := m.Events()
	if len(events) != 3 {
		t.Fatalf("ring retained %d events, want 3", len(events))
	}
	if events[0].Seq != 3 || events[2].Seq != 5 {
		t.Fatalf("retained window = [%d..%d], want [3..5]", events[0].Seq, events[2].Seq)
	}
	if m.DroppedEvents() != 2 {
		t.Errorf("dropped = %d, want 2", m.DroppedEvents())
	}

	// Paging: only events newer than the cursor come back.
	since := m.EventsSince(4)
	if len(since) != 1 || since[0].Seq != 5 {
		t.Fatalf("EventsSince(4) = %+v", since)
	}
	if got := m.EventsSince(5); len(got) != 0 {
		t.Fatalf("EventsSince(latest) = %+v", got)
	}

	// Drain empties the ring but sequence numbers keep rising.
	drained := m.Drain()
	if len(drained) != 3 || len(m.Events()) != 0 {
		t.Fatalf("drain = %d events, ring now %d", len(drained), len(m.Events()))
	}
	err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-post"), relational.Num(50), relational.Num(0), relational.Num(0), relational.Num(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, ra)
	after := m.Events()
	if len(after) != 1 || after[0].Seq != 6 {
		t.Fatalf("post-drain events = %+v, want one with seq 6", after)
	}
}

func TestWatchFiltersByQueryResult(t *testing.T) {
	// A standing query whose answer is unaffected by a change produces
	// no notification.
	ctx := context.Background()
	m, ra, _ := setup(t)
	if _, err := m.Watch(ctx, &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	}, "SELECT * FROM C2 WHERE a >= 10000"); err != nil {
		t.Fatal(err)
	}
	// The new row has a = 1, outside the monitored predicate — the CDC
	// index skips the re-evaluation outright (disjoint region).
	err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-low"), relational.Num(1), relational.Num(0), relational.Num(0), relational.Num(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, ra)
	if len(m.Events()) != 0 {
		t.Error("irrelevant change triggered a notification")
	}
	// A row inside the predicate does notify.
	err = ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-high"), relational.Num(99999), relational.Num(0), relational.Num(0), relational.Num(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	flush(t, ra)
	if len(m.Events()) != 1 {
		t.Error("relevant change missed")
	}
}

func TestWatchNoMatchingResources(t *testing.T) {
	ctx := context.Background()
	m, _, _ := setup(t)
	_, err := m.Watch(ctx, &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C5"},
	}, "SELECT * FROM C5")
	if err == nil {
		t.Error("watching a class nobody serves should fail")
	}
}

func TestSubscribeBadQuery(t *testing.T) {
	ctx := context.Background()
	_, ra, tr := setup(t)
	msg := kqml.New(kqml.Subscribe, "x", &kqml.SubscribeContent{
		SQL: "SELECT * FROM C9", SubscriberName: "x", SubscriberAddress: "inproc://x",
	})
	reply, err := tr.Call(ctx, ra.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Error {
		t.Errorf("bad standing query accepted: %s", reply.Performative)
	}
	// Malformed content.
	reply, _ = tr.Call(ctx, ra.Addr(), kqml.New(kqml.Subscribe, "x", &kqml.SubscribeContent{}))
	if reply.Performative != kqml.Error {
		t.Errorf("empty subscription accepted: %s", reply.Performative)
	}
}

func TestMonitorRejectsOtherPerformatives(t *testing.T) {
	m, _, tr := setup(t)
	reply, err := tr.Call(context.Background(), m.Addr(), kqml.New(kqml.AskAll, "x", &kqml.SQLQuery{SQL: "s"}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Sorry {
		t.Errorf("monitor answered %s to ask-all", reply.Performative)
	}
}
