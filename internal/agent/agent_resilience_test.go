package agent

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience"
	"infosleuth/internal/resilience/faulty"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// fastPolicy is a small retry policy with millisecond backoff for tests.
func fastPolicy(attempts int) *resilience.Policy {
	return resilience.New(resilience.Options{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Seed:        1,
	})
}

func TestAdvertiseRetriesWithPolicy(t *testing.T) {
	inner := transport.NewInProc()
	b1 := startBroker(t, inner, "B1")
	ft := faulty.Wrap(inner)
	// The broker drops the first two advertise attempts — a transient
	// network blip the policy must absorb.
	ft.Script(b1.Addr(), faulty.Drop(), faulty.Drop())

	a, err := New(Config{
		Name:         "RA",
		KnownBrokers: []string{b1.Addr()},
	}, WithTransport(ft), WithCallPolicy(fastPolicy(3)))
	if err != nil {
		t.Fatal(err)
	}
	a.AdBuilder = func(addr string) *ontology.Advertisement {
		return &ontology.Advertisement{
			Name: "RA", Address: addr, Type: ontology.TypeResource,
			ContentLanguages: []string{ontology.LangSQL2},
			Content:          []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}},
		}
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })

	n, err := a.Advertise(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("Advertise with retries: n=%d err=%v, want 1 connection", n, err)
	}
	if !b1.Repository().Contains("RA") {
		t.Error("broker should hold the advertisement after retried advertise")
	}
	if got := ft.Calls(b1.Addr()); got != 3 {
		t.Errorf("advertise used %d transport calls, want 3 (two drops + success)", got)
	}
	if a.CallPolicy() == nil {
		t.Error("CallPolicy accessor lost the installed policy")
	}
}

func TestAdvertiseWithoutPolicyStillSingleShot(t *testing.T) {
	inner := transport.NewInProc()
	b1 := startBroker(t, inner, "B1")
	ft := faulty.Wrap(inner)
	ft.Script(b1.Addr(), faulty.Drop())

	a, err := New(Config{Name: "RA", KnownBrokers: []string{b1.Addr()}},
		WithTransport(ft))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })

	if n, _ := a.Advertise(context.Background()); n != 0 {
		t.Fatalf("policyless advertise survived a drop: n=%d", n)
	}
	if got := ft.Calls(b1.Addr()); got != 1 {
		t.Errorf("policyless advertise made %d calls, want exactly 1", got)
	}
}

func TestCheckBrokersRetriesTransientPing(t *testing.T) {
	inner := transport.NewInProc()
	b1 := startBroker(t, inner, "B1")
	ft := faulty.Wrap(inner)

	a, err := New(Config{Name: "RA", KnownBrokers: []string{b1.Addr()}},
		WithTransport(ft), WithCallPolicy(fastPolicy(2)))
	if err != nil {
		t.Fatal(err)
	}
	a.AdBuilder = func(addr string) *ontology.Advertisement {
		return &ontology.Advertisement{
			Name: "RA", Address: addr, Type: ontology.TypeResource,
			ContentLanguages: []string{ontology.LangSQL2},
			Content:          []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}},
		}
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })
	if n, _ := a.Advertise(context.Background()); n != 1 {
		t.Fatal("setup: expected 1 connection")
	}

	// One dropped ping must not evict a live broker when retries are on.
	ft.Script(b1.Addr(), faulty.Drop())
	if n := a.CheckBrokers(context.Background()); n != 1 {
		t.Fatalf("transient ping drop evicted the broker: connected=%d", n)
	}
	if got := a.ConnectedBrokers(); len(got) != 1 || got[0] != b1.Addr() {
		t.Errorf("connected list = %v, want B1 only", got)
	}
}

func TestWithCallerFakesOutgoingCalls(t *testing.T) {
	var calls atomic.Int32
	fake := CallerFunc(func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
		calls.Add(1)
		reply := kqml.New(kqml.Tell, "fake-broker", &kqml.PingReply{Known: true})
		reply.InReplyTo = msg.ReplyWith
		return reply, nil
	})
	// No transport at all: WithCaller covers the outgoing side.
	a, err := New(Config{Name: "RA", KnownBrokers: []string{"inproc://b"}}, WithCaller(fake))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := a.Advertise(context.Background()); err != nil || n != 1 {
		t.Fatalf("advertise through fake caller: n=%d err=%v", n, err)
	}
	if calls.Load() == 0 {
		t.Fatal("fake caller never invoked")
	}
	// But listening still needs a transport, with a clear error.
	if err := a.Start(); err == nil {
		t.Fatal("Start without a transport should fail")
	}
}

func TestNewRequiresTransportOrCaller(t *testing.T) {
	if _, err := New(Config{Name: "RA"}); err == nil {
		t.Fatal("New with neither transport nor caller should fail")
	}
	if _, err := New(Config{Name: "RA"}, WithCaller(CallerFunc(
		func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
			return nil, errors.New("unused")
		}))); err != nil {
		t.Fatalf("New with caller only: %v", err)
	}
}

func TestWithTransportOverridesConfig(t *testing.T) {
	cfgTr := transport.NewInProc()
	optTr := transport.NewInProc()
	b1 := startBroker(t, optTr, "B1")

	a, err := New(Config{Name: "RA", Transport: cfgTr, KnownBrokers: []string{b1.Addr()}},
		WithTransport(optTr))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })
	// The broker only exists on the option transport; connecting proves the
	// override took effect for both listening and calling.
	if n, err := a.Advertise(context.Background()); err != nil || n != 1 {
		t.Fatalf("advertise over option transport: n=%d err=%v", n, err)
	}
}

// TestHeartbeatStopIsSynchronous is the regression test for the stop-func
// race: stop must not return while a CheckBrokers cycle is still in flight,
// so callers can tear down state the heartbeat touches right after stopping
// it. Run under -race.
func TestHeartbeatStopIsSynchronous(t *testing.T) {
	tr := transport.NewInProc()
	var inFlight atomic.Int32
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	l, err := tr.Listen("inproc://slow-broker", func(msg *kqml.Message) *kqml.Message {
		if msg.Performative == kqml.Ping {
			inFlight.Add(1)
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			inFlight.Add(-1)
		}
		reply := kqml.New(kqml.Tell, "slow-broker", &kqml.PingReply{Known: true})
		reply.InReplyTo = msg.ReplyWith
		return reply
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	a := newAgent(t, tr, "RA", 1, "inproc://slow-broker")
	if n, _ := a.Advertise(context.Background()); n != 1 {
		t.Fatal("setup: expected 1 connection")
	}

	stop := a.StartHeartbeat(2 * time.Millisecond)
	<-entered // a ping is now blocked inside the handler

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a heartbeat ping was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("stop never returned after the ping unblocked")
	}
	if got := inFlight.Load(); got != 0 {
		t.Fatalf("in-flight pings after stop = %d, want 0", got)
	}
	stop() // still idempotent
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

// count reports how many of the trace's entries have the op.
func (l *spanLog) count(traceID, op string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if e.traceID == traceID && e.Op == op {
			n++
		}
	}
	return n
}

// TestQueryBrokersTracedRecordsRetries: the trace ID QueryBrokersTraced
// mints rides the context the call policy reads, so each retry of a
// dropped broker query records a retry.attempt span in the trace.
func TestQueryBrokersTracedRecordsRetries(t *testing.T) {
	inner := transport.NewInProc()
	b1 := startBroker(t, inner, "B1")
	ft := faulty.Wrap(inner)
	a, err := New(Config{Name: "Asker", KnownBrokers: []string{b1.Addr()}},
		WithTransport(ft), WithCallPolicy(fastPolicy(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })

	log := &spanLog{}
	prev := telemetry.SetSpanRecorder(log)
	defer telemetry.SetSpanRecorder(prev)
	ft.Script(b1.Addr(), faulty.Drop(), faulty.Drop())
	_, trace, err := a.QueryBrokersTraced(context.Background(), &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := log.count(trace.ID, telemetry.OpRetryAttempt); n != 2 {
		t.Errorf("trace holds %d retry.attempt spans, want 2", n)
	}
}
