package resource

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// collector is a bare listener that records update notifications; updates
// arrive on subscription sender goroutines, so access is locked.
type collector struct {
	addr string

	mu      sync.Mutex
	updates []kqml.UpdateContent
}

func newCollector(t *testing.T, tr transport.Transport) *collector {
	t.Helper()
	c := &collector{}
	l, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		var uc kqml.UpdateContent
		if err := msg.DecodeContent(&uc); err == nil {
			c.mu.Lock()
			c.updates = append(c.updates, uc)
			c.mu.Unlock()
		}
		return kqml.New(kqml.Tell, "collector", &kqml.UpdateAck{SubscriptionID: uc.SubscriptionID, Seq: uc.Seq})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c.addr = l.Addr()
	return c
}

func (c *collector) list() []kqml.UpdateContent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]kqml.UpdateContent(nil), c.updates...)
}

func subscribe(t *testing.T, tr transport.Transport, ra *Agent, subAddr, sql string) kqml.SubscribeAck {
	t.Helper()
	msg := kqml.New(kqml.Subscribe, "collector", &kqml.SubscribeContent{
		SQL:               sql,
		SubscriberName:    "collector",
		SubscriberAddress: subAddr,
	})
	reply, err := tr.Call(context.Background(), ra.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("subscribe = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	var ack kqml.SubscribeAck
	if err := reply.DecodeContent(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

func flushSubs(t *testing.T, ra *Agent) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ra.FlushNotifications(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestSubscribeBaselineAndNotify(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	col := newCollector(t, tr)

	ack := subscribe(t, tr, ra, col.addr, "SELECT * FROM C2")
	if len(ack.Initial.Rows) != 20 {
		t.Errorf("baseline rows = %d, want 20", len(ack.Initial.Rows))
	}
	if ack.ID == "" {
		t.Fatal("missing subscription id")
	}

	// A change notifies the collector with the new result (delivery is
	// asynchronous on the subscription's sender goroutine).
	err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-x"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	updates := col.list()
	if len(updates) != 1 {
		t.Fatalf("updates = %d", len(updates))
	}
	if updates[0].SubscriptionID != ack.ID || len(updates[0].Result.Rows) != 21 {
		t.Errorf("update = %+v", updates[0])
	}
	if updates[0].Seq == 0 {
		t.Error("update missing change-stream sequence number")
	}
}

// TestUnadvertiseIsNotACancellation: a message means what its performative
// says. Unadvertise carrying a subscription id is not a conversation a
// resource agent holds, so it gets the ordinary refusal and cancels nothing.
func TestUnadvertiseIsNotACancellation(t *testing.T) {
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	ack := subscribe(t, tr, ra, col.addr, "SELECT * FROM C2")

	msg := kqml.New(kqml.Unadvertise, "collector", &kqml.SorryContent{Reason: ack.ID})
	reply, err := tr.Call(context.Background(), ra.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if want := "resource agent does not handle unadvertise"; reply.Performative != kqml.Sorry || kqml.ReasonOf(reply) != want {
		t.Errorf("unadvertise = %s %q, want sorry %q", reply.Performative, kqml.ReasonOf(reply), want)
	}
	if n := len(ra.Subscriptions()); n != 1 {
		t.Errorf("subscriptions = %d after unadvertise, want 1", n)
	}
}

func TestUnsubscribePerformative(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	ack := subscribe(t, tr, ra, col.addr, "SELECT * FROM C2")

	// Unknown id: sorry, and the live subscription survives.
	reply, err := tr.Call(ctx, ra.Addr(), kqml.New(kqml.Unsubscribe, "collector", &kqml.UnsubscribeContent{ID: "no-such-sub"}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Sorry || kqml.ReasonOf(reply) != kqml.SorryReasonUnknownSubscription {
		t.Fatalf("unknown id = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	if len(ra.Subscriptions()) != 1 {
		t.Fatalf("subscriptions = %d after unknown-id cancel", len(ra.Subscriptions()))
	}

	// Missing id: malformed.
	reply, err = tr.Call(ctx, ra.Addr(), kqml.New(kqml.Unsubscribe, "collector", &kqml.UnsubscribeContent{}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Error {
		t.Fatalf("empty id = %s", reply.Performative)
	}

	// Present id: typed ack, subscription gone, updates stop.
	reply, err = tr.Call(ctx, ra.Addr(), kqml.New(kqml.Unsubscribe, "collector", &kqml.UnsubscribeContent{ID: ack.ID}))
	if err != nil {
		t.Fatal(err)
	}
	var uack kqml.UnsubscribeAck
	if reply.Performative != kqml.Tell || reply.DecodeContent(&uack) != nil || uack.ID != ack.ID {
		t.Fatalf("cancel reply = %s %s", reply.Performative, string(reply.Content))
	}
	if len(ra.Subscriptions()) != 0 {
		t.Error("subscription not removed")
	}
	if err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-x"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	}); err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	if n := len(col.list()); n != 0 {
		t.Errorf("updates after unsubscribe = %d", n)
	}
}

func TestConcurrentUnsubscribeDuringNotify(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	const subs = 16
	ids := make([]string, subs)
	for i := range ids {
		ids[i] = subscribe(t, tr, ra, col.addr, "SELECT * FROM C2").ID
	}

	// Race mutations against cancellations: every insert fans out to
	// whatever subscriptions still exist while another goroutine tears
	// them down through the typed wire form.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < subs; i++ {
			msg := kqml.New(kqml.Unsubscribe, "collector", &kqml.UnsubscribeContent{ID: ids[i]})
			if _, err := tr.Call(ctx, ra.Addr(), msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 10; i++ {
		err := ra.InsertRow(ctx, "C2", relational.Row{
			relational.Str(fmt.Sprintf("C2-r%d", i)), relational.Num(float64(i)),
			relational.Num(2), relational.Num(3), relational.Num(4),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	if n := len(ra.Subscriptions()); n != 0 {
		t.Errorf("subscriptions left = %d", n)
	}
}

// TestDeadSubscriberDoesNotStopOthers: an unreachable subscriber is
// counted in notify_errors and every other subscriber is still served.
func TestDeadSubscriberDoesNotStopOthers(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	subscribe(t, tr, ra, col.addr, "SELECT * FROM C2")
	// A second subscription whose endpoint never listens: it counts as
	// registered, but its notification delivery fails — now visibly, on
	// the notify-errors counter.
	subscribe(t, tr, ra, "inproc://gone", "SELECT id FROM C2")
	if len(ra.Subscriptions()) != 2 {
		t.Fatalf("subscriptions = %d", len(ra.Subscriptions()))
	}
	errsBefore := mNotifyErrors.Value()
	err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-y"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	if n := len(col.list()); n != 1 {
		t.Errorf("live subscriber updates = %d, want 1", n)
	}
	if d := mNotifyErrors.Value() - errsBefore; d != 1 {
		t.Errorf("notify errors delta = %d, want 1", d)
	}
}

func TestIndexedRegionSkipsDisjointSubscriptions(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	subscribe(t, tr, ra, col.addr, "SELECT * FROM C2 WHERE a BETWEEN 0 AND 10")
	subscribe(t, tr, ra, col.addr, "SELECT * FROM C2 WHERE a BETWEEN 900 AND 910")

	// A row with a=5 overlaps the first region only: one enqueue, one
	// skip, and no re-evaluation for the disjoint subscription.
	row := relational.Row{
		relational.Str("C2-hot"), relational.Num(5), relational.Num(2), relational.Num(3), relational.Num(4),
	}
	if _, ok := ra.DB().Table("C2"); !ok {
		t.Fatal("no C2 table")
	}
	tbl, _ := ra.DB().Table("C2")
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	matched, skipped := ra.NotifyChange(ctx, Change{Class: "C2", Rows: []relational.Row{row}})
	if matched != 1 || skipped != 1 {
		t.Fatalf("matched=%d skipped=%d, want 1/1", matched, skipped)
	}
	flushSubs(t, ra)
	updates := col.list()
	if len(updates) != 1 {
		t.Fatalf("updates = %d, want 1 (disjoint region must not fire)", len(updates))
	}

	// A change with unknown extent re-evaluates everything.
	matched, skipped = ra.NotifyChange(ctx, Change{Class: "C2"})
	if matched != 2 || skipped != 0 {
		t.Fatalf("whole-class change matched=%d skipped=%d, want 2/0", matched, skipped)
	}
	flushSubs(t, ra)
}

func TestUnionStandingQueryFallsBackToEvaluateAll(t *testing.T) {
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	subscribe(t, tr, ra, col.addr,
		"SELECT id FROM C2 WHERE a BETWEEN 0 AND 1 UNION SELECT id FROM C2 WHERE a BETWEEN 900 AND 901")
	// WhereConstraints conjoins UNION branches, which would wrongly
	// narrow the region; the subscription must land in the evaluate-all
	// tier and see every change.
	matched, skipped := ra.NotifyChange(context.Background(),
		Change{Class: "C2", Rows: []relational.Row{{
			relational.Str("C2-u"), relational.Num(500), relational.Num(0), relational.Num(0), relational.Num(0),
		}}})
	if matched != 1 || skipped != 0 {
		t.Fatalf("matched=%d skipped=%d, want 1/0 (fallback tier sees all)", matched, skipped)
	}
	flushSubs(t, ra)
}

func TestStalledSubscriberDoesNotDelayOthers(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	fast := newCollector(t, tr)

	// A subscriber that parks on every update until released.
	gate := make(chan struct{})
	l, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		<-gate
		return kqml.New(kqml.Tell, "stalled", &kqml.UpdateAck{})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	defer close(gate)

	subscribe(t, tr, ra, l.Addr(), "SELECT * FROM C2")
	subscribe(t, tr, ra, fast.addr, "SELECT * FROM C2")

	start := time.Now()
	if err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-s"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(fast.list()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := len(fast.list()); n != 1 {
		t.Fatalf("fast subscriber updates = %d while peer stalled", n)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fast subscriber delayed %s behind a stalled peer", elapsed)
	}
}

func TestResultHashIgnoresRowOrder(t *testing.T) {
	r1 := relational.Row{relational.Str("x"), relational.Num(1)}
	r2 := relational.Row{relational.Str("y"), relational.Num(2)}
	a := &sqlparse.Result{Columns: []string{"id", "a"}, Rows: []relational.Row{r1, r2}}
	b := &sqlparse.Result{Columns: []string{"id", "a"}, Rows: []relational.Row{r2, r1}}
	if resultHash(a) != resultHash(b) {
		t.Error("permuted rows hash differently: spurious notifications on reordered scans")
	}
	c := &sqlparse.Result{Columns: []string{"id", "a"}, Rows: []relational.Row{r1, r1}}
	if resultHash(a) == resultHash(c) {
		t.Error("distinct multisets collide")
	}
	// The commutative combination must not cancel values across rows: two
	// swapped cell pairs is a different result.
	d := &sqlparse.Result{Columns: []string{"id", "a"}, Rows: []relational.Row{
		{relational.Str("x"), relational.Num(2)}, {relational.Str("y"), relational.Num(1)},
	}}
	if resultHash(a) == resultHash(d) {
		t.Error("cross-row cell swap collides")
	}
	if resultHash(nil) != (resultDigest{}) {
		t.Error("nil result hash")
	}
	// Values of different kinds that print alike, and the two zeros.
	num := &sqlparse.Result{Columns: []string{"a"}, Rows: []relational.Row{{relational.Num(1)}}}
	str := &sqlparse.Result{Columns: []string{"a"}, Rows: []relational.Row{{relational.Str("1")}}}
	if resultHash(num) == resultHash(str) {
		t.Error("number 1 and string '1' collide")
	}
	zero := &sqlparse.Result{Columns: []string{"a"}, Rows: []relational.Row{{relational.Num(0)}}}
	negZero := &sqlparse.Result{Columns: []string{"a"}, Rows: []relational.Row{{relational.Num(math.Copysign(0, -1))}}}
	if resultHash(zero) != resultHash(negZero) {
		t.Error("-0 and 0 hash differently: a spurious notification")
	}
}

func TestSubsHandlerReportsPipeline(t *testing.T) {
	ctx := context.Background()
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	ack := subscribe(t, tr, ra, col.addr, "SELECT * FROM C2 WHERE a >= 0")
	if err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-h"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	}); err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)

	rec := httptest.NewRecorder()
	ra.SubsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/subs", nil))
	var report struct {
		Agent         string `json:"agent"`
		Subscriptions []struct {
			ID      string   `json:"id"`
			Indexed bool     `json:"indexed"`
			Classes []string `json:"classes"`
			Evals   uint64   `json:"evals"`
			Updates uint64   `json:"updates"`
		} `json:"subscriptions"`
		Recent []struct {
			SubscriptionID string `json:"subscription_id"`
			Changed        bool   `json:"changed"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
		t.Fatalf("bad /subs JSON: %v\n%s", err, rec.Body.String())
	}
	if len(report.Subscriptions) != 1 || report.Subscriptions[0].ID != ack.ID {
		t.Fatalf("report subs = %+v", report.Subscriptions)
	}
	s := report.Subscriptions[0]
	if !s.Indexed || len(s.Classes) != 1 || s.Classes[0] != "c2" || s.Evals != 1 || s.Updates != 1 {
		t.Errorf("sub row = %+v", s)
	}
	if len(report.Recent) != 1 || report.Recent[0].SubscriptionID != ack.ID || !report.Recent[0].Changed {
		t.Errorf("recent = %+v", report.Recent)
	}
}

func TestSubscribeRespectsCapabilities(t *testing.T) {
	ra, tr := newResource(t)
	msg := kqml.New(kqml.Subscribe, "x", &kqml.SubscribeContent{
		SQL:               "SELECT COUNT(*) FROM C2",
		SubscriberName:    "x",
		SubscriberAddress: "inproc://x",
	})
	reply, err := tr.Call(context.Background(), ra.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Error {
		t.Errorf("aggregate standing query beyond capabilities = %s, want error", reply.Performative)
	}
}

func TestInsertRowUnknownClass(t *testing.T) {
	ra, _ := newResource(t)
	err := ra.InsertRow(context.Background(), "C9", relational.Row{relational.Str("x")})
	if err == nil {
		t.Error("insert into unknown class should fail")
	}
}

func TestSubclassRewriteDirect(t *testing.T) {
	// A resource serving C2a answers queries over C2, projected onto
	// C2's slots.
	tr := transport.NewInProc()
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{
		Name: "C2a",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "a", Type: relational.TypeNumber},
			{Name: "b", Type: relational.TypeNumber},
			{Name: "c", Type: relational.TypeNumber},
			{Name: "d", Type: relational.TypeNumber},
			{Name: "e", Type: relational.TypeNumber},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tbl.MustInsert(relational.Row{
			relational.Str(string(rune('a' + i))), relational.Num(float64(i)),
			relational.Num(0), relational.Num(0), relational.Num(0), relational.Num(99),
		})
	}
	ra, err := New(Config{
		Name: "SubRA", Transport: tr, DB: db,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C2a"}},
		World:    ontology.NewWorld(ontology.Generic()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Stop() })

	// SELECT * over the superclass projects onto C2's slots (id,a,b,c,d
	// — no e).
	res, err := ra.Run("SELECT * FROM C2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 || len(res.Columns) != 5 {
		t.Errorf("rewritten result = %d rows x %v", res.Len(), res.Columns)
	}
	for _, c := range res.Columns {
		if c == "e" {
			t.Error("subclass-only slot leaked into superclass projection")
		}
	}
	// Conditions on superclass slots work through the rewrite.
	res, err = ra.Run("SELECT id FROM C2 WHERE a >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("filtered rewrite rows = %d", res.Len())
	}
	// The subclass itself stays directly queryable, including e.
	res, err = ra.Run("SELECT e FROM C2a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Errorf("direct subclass rows = %d", res.Len())
	}
	// Without a world, superclass queries fail.
	raNoWorld, err := New(Config{
		Name: "NoWorld", Transport: tr, DB: db,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C2a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := raNoWorld.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raNoWorld.Stop() })
	if _, err := raNoWorld.Run("SELECT * FROM C2"); err == nil {
		t.Error("superclass query without a world should fail")
	}
}

// TestSuperclassStandingQueryIndexedUnderSubclass pins the subclass
// indexing rule: a standing query over a superclass must be indexed under
// the served subclass name, because changes are published there.
func TestSuperclassStandingQueryIndexedUnderSubclass(t *testing.T) {
	tr := transport.NewInProc()
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{
		Name: "C2a",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "a", Type: relational.TypeNumber},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(relational.Row{relational.Str("r0"), relational.Num(0)})
	ra, err := New(Config{
		Name: "SubRA", Transport: tr, DB: db,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C2a"}},
		World:    ontology.NewWorld(ontology.Generic()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Stop() })
	col := newCollector(t, tr)
	subscribe(t, tr, ra, col.addr, "SELECT * FROM C2")

	row := relational.Row{relational.Str("r1"), relational.Num(1)}
	if err := ra.InsertRow(context.Background(), "C2a", row); err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	if n := len(col.list()); n != 1 {
		t.Fatalf("superclass standing query updates = %d, want 1", n)
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

// TestTracedInsertTracesNotification: a traced insert's trace ID rides the
// update it causes, so the trace holds the notification's rpc.call span
// beside the re-evaluation, and the subscriber is handed a traced update.
func TestTracedInsertTracesNotification(t *testing.T) {
	ra, tr := newResource(t)
	var (
		mu       sync.Mutex
		received []string
	)
	l, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		mu.Lock()
		received = append(received, msg.TraceID)
		mu.Unlock()
		return kqml.New(kqml.Tell, "listener", &kqml.UpdateAck{})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	subscribe(t, tr, ra, l.Addr(), "SELECT * FROM C2")

	log := &spanLog{}
	prev := telemetry.SetSpanRecorder(log)
	defer telemetry.SetSpanRecorder(prev)
	ctx := telemetry.WithTraceID(context.Background(), "insert-trace")
	if err := ra.InsertRow(ctx, "C2", relational.Row{
		relational.Str("C2-t"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	}); err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	if got := log.agents("insert-trace", telemetry.OpSubscribeEval); len(got) != 1 {
		t.Errorf("subscribe.eval spans = %v, want one", got)
	}
	if got := log.agents("insert-trace", telemetry.OpRPCCall); len(got) != 1 || got[0] != ra.Name() {
		t.Errorf("rpc.call spans = %v, want the notification's from %s", got, ra.Name())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || received[0] != "insert-trace" {
		t.Errorf("subscriber received updates traced %q, want [insert-trace]", received)
	}
}

// TestUnsubscribeRacingSubscribe: subscription ids are predictable, so an
// unsubscribe may arrive while the subscribe that mints the id is still
// running. Spinning on the predicted id must still leave no hub
// registration behind and no update after a later insert.
func TestUnsubscribeRacingSubscribe(t *testing.T) {
	ra, tr := newResource(t)
	col := newCollector(t, tr)
	id := ra.Name() + "-sub-1"
	stop := make(chan struct{})
	removed := make(chan bool, 1)
	go func() {
		for {
			if ra.unsubscribe(id) {
				removed <- true
				return
			}
			select {
			case <-stop:
				removed <- false
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	if ack := subscribe(t, tr, ra, col.addr, "SELECT * FROM C2"); ack.ID != id {
		close(stop)
		t.Fatalf("subscription id %q, predicted %q", ack.ID, id)
	}
	select {
	case ok := <-removed:
		if !ok {
			t.Fatal("the unsubscribe never found the subscription")
		}
	case <-time.After(5 * time.Second):
		close(stop)
		t.Fatal("the unsubscribe never found the subscription")
	}
	if n := ra.subs().hub.Stats().Subscribers; n != 0 {
		t.Fatalf("hub holds %d subscribers after unsubscribe, want 0", n)
	}
	if err := ra.InsertRow(context.Background(), "C2", relational.Row{
		relational.Str("C2-r"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	}); err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	if n := len(col.list()); n != 0 {
		t.Fatalf("unsubscribed standing query delivered %d updates", n)
	}
}

// The standing-query sweep: sweepSubs subscriptions on one agent, each a
// BETWEEN over 1% of a domain of sweepDomain, registered through the
// subscribe wire form. An insert therefore overlaps about 1% of them.
const (
	sweepDomain = 100_000
	sweepSubs   = 10_000
)

// newSweepResource starts an agent over C2(id, a) with 128 rows spread
// evenly over the domain, and an acknowledging subscriber that keeps
// nothing.
func newSweepResource(t *testing.T) (ra *Agent, tr transport.Transport, subAddr string) {
	t.Helper()
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{
		Name: "C2",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "a", Type: relational.TypeNumber},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	const baseRows = 128
	for i := 0; i < baseRows; i++ {
		tbl.MustInsert(relational.Row{relational.Str(fmt.Sprintf("base-%04d", i)), relational.Num(float64(i * sweepDomain / baseRows))})
	}
	ra, tr = newResource(t, func(cfg *Config) { cfg.DB = db })
	l, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		return kqml.New(kqml.Tell, "sweep", &kqml.UpdateAck{})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return ra, tr, l.Addr()
}

// subscribeSweep registers the sweep's standing queries.
func subscribeSweep(t *testing.T, tr transport.Transport, ra *Agent, subAddr string, r *rand.Rand) {
	t.Helper()
	const width = sweepDomain / 100
	for i := 0; i < sweepSubs; i++ {
		lo := r.Intn(sweepDomain - width)
		subscribe(t, tr, ra, subAddr, fmt.Sprintf("SELECT id FROM C2 WHERE a BETWEEN %d AND %d", lo, lo+width))
	}
}

// TestIndexedSubscriptionsEvaluateFewPerChange: a change re-evaluates the
// standing queries its rows can affect, not all of them. Over 10,000
// subscriptions, 200 inserts skewed so that 80% land in the hot tenth of
// the domain must enqueue at most 5% of subscriptions × changes; about 1%
// overlaps. Evaluating every subscription on every change enqueues 100%.
func TestIndexedSubscriptionsEvaluateFewPerChange(t *testing.T) {
	ctx := context.Background()
	ra, tr, subAddr := newSweepResource(t)
	r := rand.New(rand.NewSource(1999))
	subscribeSweep(t, tr, ra, subAddr, r)
	tbl, _ := ra.DB().Table("C2")
	const changes = 200
	evaluated := 0
	for i := 0; i < changes; i++ {
		v := r.Float64() * sweepDomain
		if r.Float64() < 0.8 {
			v /= 10
		}
		row := relational.Row{relational.Str(fmt.Sprintf("chg-%05d", i)), relational.Num(v)}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		matched, _ := ra.NotifyChange(ctx, Change{Class: "C2", Rows: []relational.Row{row}})
		evaluated += matched
	}
	all := sweepSubs * changes
	t.Logf("%d of %d evaluations (%.2f%%)", evaluated, all, 100*float64(evaluated)/float64(all))
	if evaluated == 0 || evaluated*20 > all {
		t.Errorf("%d subscriptions × %d changes enqueued %d evaluations, want at most 5%% (%d) and some",
			sweepSubs, changes, evaluated, all/20)
	}
	flushSubs(t, ra)
}
