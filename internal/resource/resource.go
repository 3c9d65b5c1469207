// Package resource implements InfoSleuth resource agents: the back-end
// proxies for structured repositories (Section 2.4). A resource agent
// wraps a relational database, advertises its ontology fragment (classes,
// visible slots, data constraints) and query capabilities to brokers, and
// answers SQL queries over its data.
package resource

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/oql"
	"infosleuth/internal/relational"
	"infosleuth/internal/resilience"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
	"infosleuth/internal/transport"
)

// Config configures a resource agent.
type Config struct {
	// Name is the agent name (e.g. "DB1 resource agent").
	Name string
	// Address, Transport, KnownBrokers, Redundancy, CallTimeout are the
	// base agent knobs.
	Address      string
	Transport    transport.Transport
	KnownBrokers []string
	Redundancy   int
	CallTimeout  time.Duration
	// CallPolicy, when set, retries outgoing calls (advertising,
	// heartbeat pings, update pushes) with backoff; nil calls once.
	CallPolicy *resilience.Policy

	// DB is the repository the agent proxies; required.
	DB *relational.Database
	// Fragment describes the ontology portion this agent serves
	// (advertised to brokers); required.
	Fragment ontology.Fragment
	// Capabilities advertised; nil means relational query processing.
	Capabilities []string
	// ContentLanguages lists the query languages this agent accepts;
	// nil means SQL 2.0 only. Supported values: ontology.LangSQL2 and
	// ontology.LangOQL (the paper's Section 2.3 syntactic-brokering
	// example: semantically identical agents differing only in language).
	ContentLanguages []string
	// World, when set, enables class-hierarchy query rewriting: a query
	// over a superclass is answered from a served subclass table,
	// projected onto the superclass slots (the paper's CH streams).
	World *ontology.World
	// EstimatedResponseSec is the advertised response-time property.
	EstimatedResponseSec float64
	// QueryDelayPerRow, when positive, sleeps this long per stored row
	// on every query — the paper's resource model ("1 second per
	// megabyte of data") scaled down for live experiments.
	QueryDelayPerRow time.Duration
}

// Agent is a resource agent.
type Agent struct {
	*agent.Base
	cfg Config

	// Subscription state (see subscribe.go); lazily initialized.
	subMu    sync.Mutex
	subState *subscriptions
}

// New creates a resource agent; call Start, then Advertise.
func New(cfg Config) (*Agent, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("resource: config missing DB")
	}
	if cfg.Fragment.Ontology == "" || len(cfg.Fragment.Classes) == 0 {
		return nil, fmt.Errorf("resource: config missing Fragment ontology/classes")
	}
	for _, class := range cfg.Fragment.Classes {
		if _, ok := cfg.DB.Table(class); !ok {
			return nil, fmt.Errorf("resource %s: advertised class %q has no table", cfg.Name, class)
		}
	}
	if cfg.Capabilities == nil {
		cfg.Capabilities = []string{ontology.CapRelationalQueryProcessing}
	}
	if cfg.ContentLanguages == nil {
		cfg.ContentLanguages = []string{ontology.LangSQL2}
	}
	base, err := agent.New(agent.Config{
		Name:         cfg.Name,
		Address:      cfg.Address,
		Transport:    cfg.Transport,
		KnownBrokers: cfg.KnownBrokers,
		Redundancy:   cfg.Redundancy,
		CallTimeout:  cfg.CallTimeout,
	}, agent.WithCallPolicy(cfg.CallPolicy))
	if err != nil {
		return nil, err
	}
	a := &Agent{Base: base, cfg: cfg}
	base.Handler = a.handle
	base.AdBuilder = a.buildAd
	return a, nil
}

func (a *Agent) buildAd(addr string) *ontology.Advertisement {
	frag := a.cfg.Fragment
	frag.Classes = append([]string(nil), a.cfg.Fragment.Classes...)
	frag.Constraints = a.cfg.Fragment.Constraints.Clone()
	var rows int64
	for _, class := range frag.Classes {
		if t, ok := a.cfg.DB.Table(class); ok {
			rows += int64(t.Len())
		}
	}
	return &ontology.Advertisement{
		Name:             a.cfg.Name,
		Address:          addr,
		Type:             ontology.TypeResource,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: append([]string(nil), a.cfg.ContentLanguages...),
		Conversations:    []string{ontology.ConvAskAll, ontology.ConvSubscribe, ontology.ConvUpdate},
		Capabilities:     append([]string(nil), a.cfg.Capabilities...),
		Content:          []ontology.Fragment{frag},
		Properties: ontology.Properties{
			EstimatedResponseSec: a.cfg.EstimatedResponseSec,
			EstimatedRows:        rows,
		},
	}
}

// Advertisement returns the agent's current advertisement.
func (a *Agent) Advertisement() *ontology.Advertisement { return a.buildAd(a.Addr()) }

// DB exposes the backing database (examples and tests).
func (a *Agent) DB() *relational.Database { return a.cfg.DB }

func (a *Agent) handle(msg *kqml.Message) *kqml.Message {
	switch msg.Performative {
	case kqml.AskAll, kqml.AskOne:
		return a.handleQuery(msg)
	case kqml.Subscribe:
		return a.handleSubscribe(msg)
	case kqml.Unsubscribe:
		var uc kqml.UnsubscribeContent
		if err := msg.DecodeContent(&uc); err != nil || uc.ID == "" {
			return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: kqml.SorryReasonMalformedSubscription})
		}
		if a.unsubscribe(uc.ID) {
			return a.Reply(msg, kqml.Tell, &kqml.UnsubscribeAck{ID: uc.ID})
		}
		return a.Reply(msg, kqml.Sorry, &kqml.SorryContent{Reason: kqml.SorryReasonUnknownSubscription})
	default:
		return a.Reply(msg, kqml.Sorry, &kqml.SorryContent{
			Reason: fmt.Sprintf("resource agent does not handle %s", msg.Performative),
		})
	}
}

// InsertRow adds a row to one of the agent's tables and pushes update
// notifications to affected subscribers: the insert publishes a typed
// change event and returns immediately, and subscriptions overlapping the
// new row's region re-evaluate on their own sender goroutines
// (FlushNotifications waits for them).
func (a *Agent) InsertRow(ctx context.Context, class string, row relational.Row) error {
	tbl, ok := a.cfg.DB.Table(class)
	if !ok {
		return fmt.Errorf("resource %s: no table %q", a.cfg.Name, class)
	}
	if err := tbl.Insert(row); err != nil {
		return err
	}
	a.NotifyChange(ctx, Change{Class: class, Rows: []relational.Row{row}})
	return nil
}

// Stop shuts the subscription pipeline down (pending deliveries are
// discarded) and then stops the underlying agent.
func (a *Agent) Stop() error {
	a.subMu.Lock()
	st := a.subState
	a.subMu.Unlock()
	if st != nil {
		st.hub.Close()
	}
	return a.Base.Stop()
}

func (a *Agent) handleQuery(msg *kqml.Message) *kqml.Message {
	var sq kqml.SQLQuery
	if err := msg.DecodeContent(&sq); err != nil {
		return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: kqml.SorryReasonMalformedQuery})
	}
	start := time.Now()
	stmt, err := a.compile(a.language(msg), sq.SQL)
	var class string // asked for, read before execute retargets a superclass
	var res *sqlparse.Result
	if stmt != nil {
		class = stmt.From[0].Name
	}
	if err == nil {
		res, err = a.execute(stmt)
	}
	var reply *kqml.Message
	if err != nil {
		reply = a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: err.Error()})
		if msg.TraceID != "" {
			// Surface the rejection as a pushdown decision on the reply
			// envelope so the requester's explain report can say which
			// resource refused the statement and why (capability beyond
			// advertisement, unserved class, unsupported language, parse
			// error). Error path only — accepted queries stay untouched.
			d := provenance.Decision(kqml.ProvEvent{Kind: kqml.ProvPushdown, Agent: a.cfg.Name,
				Pushdown: &kqml.PushdownDecision{Class: class, Fallback: err.Error()}})
			kqml.PropagateTrace(msg, reply, d)
			telemetry.RecordSpan(msg.TraceID, d)
		}
	} else {
		reply = a.Reply(msg, kqml.Tell, &kqml.SQLResult{Columns: res.Columns, Rows: res.Rows})
	}
	if msg.TraceID != "" {
		span := kqml.TraceSpan{
			Agent:          a.cfg.Name,
			Op:             kqml.OpResourceQuery,
			Start:          start.UnixNano(),
			DurationMicros: time.Since(start).Microseconds(),
		}
		if err != nil {
			span.Err = err.Error()
		}
		kqml.PropagateTrace(msg, reply, span)
		telemetry.RecordSpan(msg.TraceID, span)
	}
	if telemetry.RootObserverActive() {
		// Feed the tail sampler / SLO tracker on the serving side too: a
		// resource that slows down pins traces in its *own* slowlog even
		// when the requester's threshold hasn't caught up yet.
		telemetry.ObserveRoot(telemetry.RootOutcome{
			Op:             kqml.OpResourceQuery,
			TraceID:        msg.TraceID,
			DurationMicros: time.Since(start).Microseconds(),
			Err:            err != nil,
		})
	}
	return reply
}

// Run executes one query in the agent's primary content language.
func (a *Agent) Run(query string) (*sqlparse.Result, error) {
	return a.RunIn(a.cfg.ContentLanguages[0], query)
}

// RunIn parses a query in the named content language (SQL 2.0 or OQL),
// checks it, and executes it against the agent's data.
func (a *Agent) RunIn(language, query string) (*sqlparse.Result, error) {
	stmt, err := a.compile(language, query)
	if err != nil {
		return nil, err
	}
	return a.execute(stmt)
}

// language is the content language msg's statement is written in: the
// message's own, or the agent's primary one when it names none.
func (a *Agent) language(msg *kqml.Message) string {
	if msg.Language != "" {
		return msg.Language
	}
	return a.cfg.ContentLanguages[0]
}

// compile parses a statement in the named content language and checks it
// stays inside the advertised capability lattice and classes; every
// statement the agent runs comes through here. A language the agent did
// not advertise is rejected — the syntactic half of the paper's brokering:
// a mis-brokered agent "will be unable to understand the message it
// receives". A statement failing a check comes back with the error.
func (a *Agent) compile(language, query string) (*sqlparse.Select, error) {
	if !a.speaks(language) {
		return nil, fmt.Errorf("resource %s: content language %q not supported (speaks %s)",
			a.cfg.Name, language, strings.Join(a.cfg.ContentLanguages, ", "))
	}
	var stmt *sqlparse.Select
	var err error
	switch {
	case strings.EqualFold(language, ontology.LangOQL):
		stmt, err = oql.Parse(query)
	default:
		stmt, err = sqlparse.Parse(query)
	}
	if err != nil {
		return nil, err
	}
	// Capability check: the statement's Figure 2 requirements must be
	// subsumed by an advertised capability (the paper's
	// myRelationalQueryAgent "cannot do any statistical aggregation"
	// style restriction).
	for _, need := range stmt.Capabilities() {
		if !ontology.Satisfies(a.cfg.Capabilities, need) {
			return stmt, fmt.Errorf("resource %s: query needs capability %q beyond advertisement", a.cfg.Name, need)
		}
	}
	// Class check: only advertised classes are queryable — directly, or
	// through the class hierarchy (a query over C2 is answered from a
	// served C2a fragment, projected onto C2's slots).
	for _, table := range stmt.Tables() {
		if a.servesClass(table) {
			continue
		}
		if _, ok := a.servedSubclassOf(table); !ok {
			return stmt, fmt.Errorf("resource %s: class %q not served", a.cfg.Name, table)
		}
	}
	return stmt, nil
}

// execute runs a compiled statement against the agent's data, retargeting
// (in place) each superclass it reads onto the served subclass.
func (a *Agent) execute(stmt *sqlparse.Select) (*sqlparse.Result, error) {
	for cur := stmt; cur != nil; cur = cur.Union {
		for _, from := range cur.From {
			if a.servesClass(from.Name) {
				continue
			}
			if sub, ok := a.servedSubclassOf(from.Name); ok {
				rewriteForSubclass(stmt, from.Name, sub, a.superclassSlots(from.Name, sub))
			}
		}
	}
	if d := a.cfg.QueryDelayPerRow; d > 0 {
		time.Sleep(time.Duration(a.cfg.DB.TotalRows()) * d)
	}
	return sqlparse.Execute(a.cfg.DB, stmt)
}

// servedSubclassOf finds a served class that is a subclass of the request.
func (a *Agent) servedSubclassOf(class string) (string, bool) {
	if a.cfg.World == nil {
		return "", false
	}
	ont := a.cfg.World.Ontology(a.cfg.Fragment.Ontology)
	if ont == nil {
		return "", false
	}
	for _, served := range a.cfg.Fragment.Classes {
		if served != class && ont.IsSubclassOf(served, class) {
			return served, true
		}
	}
	return "", false
}

// superclassSlots returns the requested class's slots restricted to the
// columns the subclass table actually has.
func (a *Agent) superclassSlots(super, sub string) []string {
	ont := a.cfg.World.Ontology(a.cfg.Fragment.Ontology)
	tbl, ok := a.cfg.DB.Table(sub)
	if !ok || ont == nil {
		return nil
	}
	var out []string
	for _, s := range ont.SlotsOf(super) {
		if tbl.Schema().ColIndex(s) >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// rewriteForSubclass retargets references to a superclass table onto the
// served subclass, in place, and narrows a SELECT * to the superclass's slots so
// unioning across sibling subclasses yields uniform columns.
func rewriteForSubclass(stmt *sqlparse.Select, super, sub string, slots []string) {
	for cur := stmt; cur != nil; cur = cur.Union {
		changed := false
		for i := range cur.From {
			if strings.EqualFold(cur.From[i].Name, super) {
				cur.From[i].Name = sub
				changed = true
			}
		}
		if changed && cur.Star && len(slots) > 0 {
			cur.Star = false
			for _, s := range slots {
				cur.Columns = append(cur.Columns, sqlparse.ColRef{Column: s})
			}
		}
	}
}

// speaks reports whether the agent advertised the content language.
func (a *Agent) speaks(language string) bool {
	for _, l := range a.cfg.ContentLanguages {
		if strings.EqualFold(l, language) {
			return true
		}
	}
	return false
}

func (a *Agent) servesClass(class string) bool {
	for _, c := range a.cfg.Fragment.Classes {
		if strings.EqualFold(c, class) {
			return true
		}
	}
	return false
}
