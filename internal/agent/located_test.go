package agent

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience/faulty"
	"infosleuth/internal/transport"
)

// c2Query is the MRQ's Figure 7 query for class C2, narrowed by a
// constraint: the form an agent answers from a class-wide located set.
func c2Query() *ontology.Query {
	return &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Constraints: constraint.MustParse("C2.a > 0")}
}

// startHolder starts an agent that keeps located sets (it has a
// listener) and knows the given brokers.
func startHolder(t *testing.T, tr transport.Transport, brokers ...string) *Base {
	t.Helper()
	h, err := New(Config{Name: "Holder", Transport: tr, KnownBrokers: brokers})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Stop() })
	return h
}

// startResource advertises an agent serving class at the broker.
func startResource(t *testing.T, tr transport.Transport, name, class, brokerAddr string) *Base {
	t.Helper()
	r := newAgent(t, tr, name, 1, brokerAddr)
	r.AdBuilder = func(addr string) *ontology.Advertisement {
		return &ontology.Advertisement{
			Name: name, Address: addr, Type: ontology.TypeResource,
			ContentLanguages: []string{ontology.LangSQL2},
			Content:          []ontology.Fragment{{Ontology: "generic", Classes: []string{class}}},
		}
	}
	if _, err := r.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r
}

// held counts the located sets an agent holds.
func held(a *Base) int {
	a.located.mu.Lock()
	defer a.located.mu.Unlock()
	return len(a.located.sets)
}

func matchNames(t *testing.T, h *Base, q *ontology.Query) []string {
	t.Helper()
	br, err := h.QueryBrokers(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ad := range br.Matches {
		names = append(names, ad.Name)
	}
	return names
}

// TestLocatedSetAnswersWithoutTheBroker: the second query of a class asks
// no broker, and its answer is the broker's answer to it.
func TestLocatedSetAnswersWithoutTheBroker(t *testing.T) {
	tr := transport.NewInProc()
	b := startBroker(t, tr, "B1")
	startResource(t, tr, "R1", "C2", b.Addr())
	h := startHolder(t, tr, b.Addr())
	first := matchNames(t, h, c2Query())
	served := b.Stats.QueriesServed.Load()
	if got := matchNames(t, h, c2Query()); !slices.Equal(got, first) || len(got) != 1 {
		t.Fatalf("second answer %v, first %v", got, first)
	}
	if n := b.Stats.QueriesServed.Load() - served; n != 0 {
		t.Errorf("the second query reached the broker %d times, want 0", n)
	}
	// The saved set is class-wide: another constraint on the class is
	// answered from it too, narrowed by the broker's constraint clause.
	q := c2Query()
	q.Constraints = constraint.MustParse("C2.a < 0")
	r1 := newAgent(t, tr, "R-narrow", 1, b.Addr())
	r1.AdBuilder = func(addr string) *ontology.Advertisement {
		return &ontology.Advertisement{Name: "R-narrow", Address: addr, Type: ontology.TypeResource,
			Content: []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}, Constraints: constraint.MustParse("C2.a > 10")}}}
	}
	if _, err := r1.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := matchNames(t, h, q); !slices.Equal(got, []string{"R1"}) {
		t.Errorf("C2.a < 0 matched %v, want [R1] (R-narrow advertises C2.a > 10)", got)
	}
	served = b.Stats.QueriesServed.Load()
	if got := matchNames(t, h, q); !slices.Equal(got, []string{"R1"}) {
		t.Errorf("narrowed from the located set, C2.a < 0 matched %v, want [R1]", got)
	}
	if n := b.Stats.QueriesServed.Load() - served; n != 0 {
		t.Errorf("the narrowed query reached the broker %d times, want 0", n)
	}
}

// stallMatcher runs a hook after the inner match returns: the window
// between a broker's match and its reply.
type stallMatcher struct {
	inner broker.Matcher
	after atomic.Pointer[func()]
}

func (m *stallMatcher) Match(repo *broker.Repository, q *ontology.Query) ([]*ontology.Advertisement, error) {
	out, err := m.inner.Match(repo, q)
	if f := m.after.Swap(nil); f != nil {
		(*f)()
	}
	return out, err
}

// TestBrokerRegistersHolderBeforeItMatches: an advertise acknowledged
// between the broker's match and its reply must still reach the holder,
// so the stale reply is not kept and the next query sees the new agent.
// A broker that registered the holder after matching would let the
// holder keep the reply without R2.
func TestBrokerRegistersHolderBeforeItMatches(t *testing.T) {
	tr := transport.NewInProc()
	m := &stallMatcher{inner: &broker.DirectMatcher{World: ontology.NewWorld(ontology.Generic())}}
	b, err := broker.New(broker.Config{Name: "B1", Transport: tr, World: ontology.NewWorld(ontology.Generic()), Matcher: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Stop() })
	startResource(t, tr, "R1", "C2", b.Addr())
	h := startHolder(t, tr, b.Addr())
	advertiseR2 := func() {
		ad := &ontology.Advertisement{Name: "R2", Address: "nowhere", Type: ontology.TypeResource,
			Content: []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}}}
		msg := kqml.New(kqml.Advertise, "R2", &kqml.AdvertiseContent{Ad: ad})
		msg.Ontology = kqml.ServiceOntology
		if reply := b.Handle(msg); reply.Performative != kqml.Tell {
			t.Errorf("advertising R2: %s", kqml.ReasonOf(reply))
		}
	}
	m.after.Store(&advertiseR2)
	if got := matchNames(t, h, c2Query()); !slices.Equal(got, []string{"R1"}) {
		t.Fatalf("the stalled query matched %v, want [R1]: R2 advertised after the match", got)
	}
	if got := matchNames(t, h, c2Query()); !slices.Equal(got, []string{"R1", "R2"}) {
		t.Errorf("after R2's advertise was acknowledged the holder answered %v, want [R1 R2]", got)
	}
}

// TestHolderKeepsNoReplyOvertakenByAnUpdate: an update from a broker that
// arrives after the query left and before its reply means the reply may
// be stale; the holder uses it but does not keep it. An update from a
// broker that did not contribute does not stop it.
func TestHolderKeepsNoReplyOvertakenByAnUpdate(t *testing.T) {
	tr := transport.NewInProc()
	var h *Base
	var asked atomic.Int32
	var updateFrom atomic.Pointer[string]
	fake := CallerFunc(func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
		asked.Add(1)
		if from := updateFrom.Swap(nil); from != nil {
			up := kqml.New(kqml.Update, *from, &kqml.UpdateContent{})
			up.Ontology = kqml.ServiceOntology
			if _, err := tr.Call(ctx, h.Addr(), up); err != nil {
				return nil, err
			}
		}
		ad := &ontology.Advertisement{Name: "R1", Address: "r1", Type: ontology.TypeResource,
			Content: []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}}}
		return kqml.New(kqml.Tell, "B1", &kqml.BrokerReply{Matches: []*ontology.Advertisement{ad}, Brokers: []string{"B1"}, Granted: true}), nil
	})
	h, err := New(Config{Name: "Holder", Transport: tr, KnownBrokers: []string{"b1"}}, WithCaller(fake))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	from := "B1"
	updateFrom.Store(&from)
	matchNames(t, h, c2Query())
	matchNames(t, h, c2Query())
	if n := asked.Load(); n != 2 {
		t.Fatalf("B1's update overtook the first reply, so the second query must ask again: %d broker calls, want 2", n)
	}
	up := kqml.New(kqml.Update, "B1", &kqml.UpdateContent{})
	up.Ontology = kqml.ServiceOntology
	if _, err := tr.Call(context.Background(), h.Addr(), up); err != nil {
		t.Fatal(err)
	}
	if held(h) != 0 {
		t.Fatalf("B1's update left %d sets", held(h))
	}
	other := "B9"
	updateFrom.Store(&other)
	matchNames(t, h, c2Query()) // kept: B9 contributed nothing
	matchNames(t, h, c2Query())
	if n := asked.Load(); n != 3 {
		t.Errorf("an update from B9 kept B1's reply from being saved: %d broker calls, want 3", n)
	}
}

// TestSubclassAdInvalidatesSuperclassSet: an agent serving a subclass
// answers queries about its superclass, so its advertise must reach the
// holders of the superclass's set.
func TestSubclassAdInvalidatesSuperclassSet(t *testing.T) {
	tr := transport.NewInProc()
	b := startBroker(t, tr, "B1")
	startResource(t, tr, "R1", "C2", b.Addr())
	h := startHolder(t, tr, b.Addr())
	matchNames(t, h, c2Query())
	startResource(t, tr, "R2a", "C2a", b.Addr())
	if got := matchNames(t, h, c2Query()); !slices.Contains(got, "R2a") {
		t.Errorf("after a C2a advertise the C2 holder answered %v, want R2a in it", got)
	}
}

// TestChangeAtBroker2InvalidatesHolderOfBroker1: a search broker 1
// forwarded to broker 2 registered the holder there too, so a change at
// broker 2 reaches it before broker 2 acknowledges.
func TestChangeAtBroker2InvalidatesHolderOfBroker1(t *testing.T) {
	tr := transport.NewInProc()
	b1 := startBroker(t, tr, "B1")
	b2 := startBroker(t, tr, "B2")
	if err := b1.JoinConsortium(context.Background(), b2.Addr()); err != nil {
		t.Fatal(err)
	}
	startResource(t, tr, "R1", "C2", b1.Addr())
	h := startHolder(t, tr, b1.Addr())
	matchNames(t, h, c2Query())
	r2 := startResource(t, tr, "R2", "C2", b2.Addr())
	if got := matchNames(t, h, c2Query()); !slices.Equal(got, []string{"R1", "R2"}) {
		t.Errorf("after R2 advertised at B2 the holder of B1 answered %v, want [R1 R2]", got)
	}
	r2.Unadvertise(context.Background())
	if got := matchNames(t, h, c2Query()); !slices.Equal(got, []string{"R1"}) {
		t.Errorf("after R2 unadvertised at B2 the holder of B1 answered %v, want [R1]", got)
	}
}

// TestFailedUpdateIsWaitedOut: when a broker cannot deliver the update,
// it acknowledges the change only once the holder's lease has run out,
// so the holder's next query asks again and sees the change.
func TestFailedUpdateIsWaitedOut(t *testing.T) {
	inner := transport.NewInProc()
	ft := faulty.Wrap(inner)
	b, err := broker.New(broker.Config{Name: "B1", Transport: ft, World: ontology.NewWorld(ontology.Generic())})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	startResource(t, inner, "R1", "C2", b.Addr())
	h := startHolder(t, inner, b.Addr())
	matchNames(t, h, c2Query())
	ft.Script(h.Addr(), faulty.Drop())
	start := time.Now()
	startResource(t, inner, "R2", "C2", b.Addr())
	if waited := time.Since(start); waited < kqml.LocatedSetLease/2 {
		t.Errorf("the advertise was acknowledged after %v although its update was dropped", waited)
	}
	if got := matchNames(t, h, c2Query()); !slices.Equal(got, []string{"R1", "R2"}) {
		t.Errorf("after the acknowledged advertise the holder answered %v, want [R1 R2]", got)
	}
}

// TestStoppingLeavesNoHolderGoroutines: a broker stopped while it waits
// out a failed update, and an agent stopped with live sets, leave no hub
// sender or update goroutine behind.
func TestStoppingLeavesNoHolderGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := transport.NewInProc()
	b, err := broker.New(broker.Config{Name: "B1", Transport: tr, World: ontology.NewWorld(ontology.Generic())})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	r1 := startResource(t, tr, "R1", "C2", b.Addr())
	h, err := New(Config{Name: "Holder", Transport: tr, KnownBrokers: []string{b.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	matchNames(t, h, c2Query())
	if held(h) != 1 {
		t.Fatalf("the holder holds %d sets, want 1", held(h))
	}
	h.Stop() // the broker's update to it will fail
	if held(h) != 0 {
		t.Errorf("a stopped holder still holds %d sets", held(h))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r1.Unadvertise(context.Background()) // waits out the lease
	}()
	time.Sleep(50 * time.Millisecond)
	b.Stop()
	r1.Stop()
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after stopping, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestRefusingBrokerIsAskedAsWritten: a broker that grants no located set
// (a PaperFaithful one) answers the class-wide query once; for a lease
// after that, the agent asks it each query as written, with no holder.
func TestRefusingBrokerIsAskedAsWritten(t *testing.T) {
	tr := transport.NewInProc()
	var asked []*kqml.BrokerQuery
	fake := CallerFunc(func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
		var bq kqml.BrokerQuery
		if err := msg.DecodeContent(&bq); err != nil {
			return nil, err
		}
		asked = append(asked, &bq)
		return kqml.New(kqml.Tell, "B1", &kqml.BrokerReply{Matches: []*ontology.Advertisement{}, Brokers: []string{"B1"}}), nil
	})
	h, err := New(Config{Name: "Holder", Transport: tr, KnownBrokers: []string{"b1"}}, WithCaller(fake))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	matchNames(t, h, c2Query())
	matchNames(t, h, c2Query())
	if len(asked) != 2 {
		t.Fatalf("%d broker calls, want 2: a refused reply is not kept", len(asked))
	}
	if first := asked[0]; first.Holder != h.Addr() || first.Query.Constraints.Len() != 0 {
		t.Errorf("the first query went with holder %q and constraints %v, want the class-wide query with the holder", first.Holder, first.Query.Constraints)
	}
	if second := asked[1]; second.Holder != "" || second.Query.Constraints.Len() == 0 {
		t.Errorf("after the refusal the query went with holder %q and constraints %v, want it as written", second.Holder, second.Query.Constraints)
	}
}
