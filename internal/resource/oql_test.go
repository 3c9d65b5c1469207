package resource

import (
	"context"
	"strings"
	"testing"

	"infosleuth/internal/broker"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/transport"
)

// TestSection23SyntacticBrokering reproduces the paper's Section 2.3
// scenario: "multiple query processing agents, all of which process
// queries specified in languages that are based on relational algebra, but
// one agent expects its input in SQL, while the other expects its input in
// a relational subset of OQL. In this case, the semantics are not
// sufficient to distinguish which agent to select."
func TestSection23SyntacticBrokering(t *testing.T) {
	ctx := context.Background()
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

	// Two agents with identical semantics (relational query processing
	// over class C2) differing only in content language.
	mk := func(name string, langs []string) *Agent {
		db := relational.NewDatabase()
		if _, err := relational.GenerateGeneric(db, "C2", 6, 1); err != nil {
			t.Fatal(err)
		}
		a, err := New(Config{
			Name: name, Transport: tr, KnownBrokers: []string{b.Addr()},
			DB:               db,
			Fragment:         ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
			ContentLanguages: langs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Stop() })
		if _, err := a.Advertise(ctx); err != nil {
			t.Fatal(err)
		}
		return a
	}
	sqlAgent := mk("SQL-RA", []string{ontology.LangSQL2})
	oqlAgent := mk("OQL-RA", []string{ontology.LangOQL})

	ask := func(q *ontology.Query) []string {
		reply, err := b.Search(ctx, &kqml.BrokerQuery{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ad := range reply.Matches {
			names = append(names, ad.Name)
		}
		return names
	}

	// A purely semantic query cannot distinguish them: both match.
	semantic := &ontology.Query{
		Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"},
		Capabilities: []string{ontology.CapRelationalQueryProcessing},
	}
	if got := ask(semantic); len(got) != 2 {
		t.Fatalf("semantic-only query matched %v, want both agents", got)
	}
	// Adding the syntactic requirement resolves the ambiguity.
	withSQL := semantic.Clone()
	withSQL.ContentLanguage = ontology.LangSQL2
	if got := ask(withSQL); len(got) != 1 || got[0] != "SQL-RA" {
		t.Errorf("SQL query matched %v", got)
	}
	withOQL := semantic.Clone()
	withOQL.ContentLanguage = ontology.LangOQL
	if got := ask(withOQL); len(got) != 1 || got[0] != "OQL-RA" {
		t.Errorf("OQL query matched %v", got)
	}

	// The OQL agent answers OQL and rejects SQL — the consequence of a
	// broker ignoring syntax would be an agent that cannot understand
	// its messages.
	res, err := oqlAgent.RunIn(ontology.LangOQL, "select x.id, x.a from x in C2 where x.a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6 {
		t.Errorf("OQL rows = %d", res.Len())
	}
	if _, err := oqlAgent.RunIn(ontology.LangSQL2, "SELECT * FROM C2"); err == nil ||
		!strings.Contains(err.Error(), "not supported") {
		t.Errorf("OQL agent accepted SQL: %v", err)
	}
	if _, err := sqlAgent.RunIn(ontology.LangOQL, "select x from x in C2"); err == nil {
		t.Error("SQL agent accepted OQL")
	}

	// Message-level language routing: the KQML Language field selects
	// the parser.
	msg := kqml.New(kqml.AskAll, "tester", &kqml.SQLQuery{SQL: "select x.id from x in C2"})
	msg.Language = ontology.LangOQL
	reply, err := tr.Call(ctx, oqlAgent.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("OQL via KQML = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
}

// TestBilingualResourceAgent covers an agent advertising both languages.
func TestBilingualResourceAgent(t *testing.T) {
	tr := transport.NewInProc()
	db := relational.NewDatabase()
	if _, err := relational.GenerateGeneric(db, "C2", 4, 1); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Name: "Bilingual", Transport: tr, DB: db,
		Fragment:         ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
		ContentLanguages: []string{ontology.LangSQL2, ontology.LangOQL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Stop() })
	r1, err := a.RunIn(ontology.LangSQL2, "SELECT id FROM C2")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.RunIn(ontology.LangOQL, "select x.id from x in C2")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Errorf("SQL %d rows vs OQL %d rows", r1.Len(), r2.Len())
	}
}

// newBilingual starts an agent speaking SQL first and OQL second, over C2.
func newBilingual(t *testing.T, caps ...string) (*Agent, transport.Transport) {
	t.Helper()
	return newResource(t, func(c *Config) {
		c.Name = "Bilingual"
		c.ContentLanguages = []string{ontology.LangSQL2, ontology.LangOQL}
		c.Capabilities = caps
	})
}

// TestOQLSubscribe: a subscribe honours the message's content language
// like an ask does. The standing query is parsed, indexed and re-evaluated
// in OQL on an agent whose primary language is SQL.
func TestOQLSubscribe(t *testing.T) {
	ra, tr := newBilingual(t)
	col := newCollector(t, tr)
	msg := kqml.New(kqml.Subscribe, "collector", &kqml.SubscribeContent{
		SQL:               "select x.id from x in C2 where x.a >= 0",
		SubscriberName:    "collector",
		SubscriberAddress: col.addr,
	})
	msg.Language = ontology.LangOQL
	reply, err := tr.Call(context.Background(), ra.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Tell {
		t.Fatalf("OQL subscribe = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	var ack kqml.SubscribeAck
	if err := reply.DecodeContent(&ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.Initial.Rows) != 20 {
		t.Fatalf("baseline rows = %d, want 20", len(ack.Initial.Rows))
	}
	if err := ra.InsertRow(context.Background(), "C2", relational.Row{
		relational.Str("C2-oql"), relational.Num(1), relational.Num(2), relational.Num(3), relational.Num(4),
	}); err != nil {
		t.Fatal(err)
	}
	flushSubs(t, ra)
	updates := col.list()
	if len(updates) != 1 || len(updates[0].Result.Rows) != 21 {
		t.Fatalf("updates = %+v, want one 21-row update re-evaluated in OQL", updates)
	}
}

// TestOQLRefusalNamesClass: a traced OQL query refused for a capability
// beyond the advertisement reports a pushdown decision naming the class
// it asked for, read from the statement parsed in the query's language.
func TestOQLRefusalNamesClass(t *testing.T) {
	ra, tr := newBilingual(t, ontology.CapSelect, ontology.CapProject)
	msg := kqml.New(kqml.AskAll, "tester", &kqml.SQLQuery{SQL: "select count(*) from x in C2"})
	msg.Language = ontology.LangOQL
	msg.TraceID = "refusal-trace"
	reply, err := tr.Call(context.Background(), ra.Addr(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != kqml.Error || !strings.Contains(kqml.ReasonOf(reply), "beyond advertisement") {
		t.Fatalf("reply = %s: %s, want a capability refusal", reply.Performative, kqml.ReasonOf(reply))
	}
	var classes []string
	for _, s := range reply.Trace {
		if s.Decision != nil && s.Decision.Pushdown != nil {
			classes = append(classes, s.Decision.Pushdown.Class)
		}
	}
	if len(classes) != 1 || classes[0] != "C2" {
		t.Fatalf("refusal decisions name classes %q, want [C2]", classes)
	}
}
