// Package useragent implements InfoSleuth user agents: proxies for
// individual users that accept SQL queries, locate a multiresource query
// agent through the broker (the paper's Figure 6), and forward the query
// to it.
package useragent

import (
	"context"
	"fmt"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
)

// Config configures a user agent.
type Config struct {
	Name         string
	Address      string
	Transport    transport.Transport
	KnownBrokers []string
	Redundancy   int
	CallTimeout  time.Duration
	// RandomizeBrokerChoice spreads broker queries uniformly over
	// connected brokers (the paper's query-agent behavior).
	RandomizeBrokerChoice bool
	// CallPolicy, when set, retries outgoing calls with backoff and
	// skips peers whose circuit is open; nil calls once.
	CallPolicy *resilience.Policy

	// Ontology optionally narrows MRQ lookup to specialists in the
	// query's classes (the paper's MRQ2 preference). Empty skips the
	// content part of the lookup.
	Ontology string
}

// Agent is a user agent.
type Agent struct {
	*agent.Base
	cfg Config
}

// New creates a user agent; call Start, then Advertise.
func New(cfg Config) (*Agent, error) {
	base, err := agent.New(agent.Config{
		Name:         cfg.Name,
		Address:      cfg.Address,
		Transport:    cfg.Transport,
		KnownBrokers: cfg.KnownBrokers,
		Redundancy:   cfg.Redundancy,
		CallTimeout:  cfg.CallTimeout,

		RandomizeBrokerChoice: cfg.RandomizeBrokerChoice,
	}, agent.WithCallPolicy(cfg.CallPolicy))
	if err != nil {
		return nil, err
	}
	a := &Agent{Base: base, cfg: cfg}
	base.AdBuilder = a.buildAd
	return a, nil
}

func (a *Agent) buildAd(addr string) *ontology.Advertisement {
	return &ontology.Advertisement{
		Name:          a.cfg.Name,
		Address:       addr,
		Type:          ontology.TypeUser,
		CommLanguages: []string{ontology.LangKQML},
		Conversations: []string{ontology.ConvAskAll},
	}
}

// Submit runs one SQL query for the user: locate an MRQ agent via the
// broker, forward the query, return the assembled result. When the query
// names classes and an ontology is configured, the broker lookup includes
// them so a class specialist wins over a generalist. A trace ID on the
// context (telemetry.WithTraceID) makes the whole conversation record
// spans into the flight recorder; SubmitTraced mints one for you.
func (a *Agent) Submit(ctx context.Context, sql string) (*sqlparse.Result, error) {
	if telemetry.TraceIDFrom(ctx) == "" && telemetry.SpanRecorderActive() {
		// Always-on tail sampling: with a flight recorder installed the
		// submission is traced under a minted ID, so a slow or failed
		// query can be pinned into the slowlog after the fact.
		ctx = telemetry.WithTraceID(ctx, telemetry.NewTraceID())
	}
	if !telemetry.RootObserverActive() {
		return a.submit(ctx, sql)
	}
	start := time.Now()
	res, err := a.submit(ctx, sql)
	telemetry.ObserveRoot(telemetry.RootOutcome{
		Op:             telemetry.OpUserSubmit,
		TraceID:        telemetry.TraceIDFrom(ctx),
		DurationMicros: time.Since(start).Microseconds(),
		Err:            err != nil,
	})
	return res, err
}

func (a *Agent) submit(ctx context.Context, sql string) (*sqlparse.Result, error) {
	q := &ontology.Query{
		Type:            ontology.TypeQuery,
		ContentLanguage: ontology.LangSQL2,
		Capabilities:    []string{ontology.CapMultiresourceQuery},
		Limit:           1,
	}
	if a.cfg.Ontology != "" {
		if stmt, err := sqlparse.Parse(sql); err == nil {
			q.Ontology = a.cfg.Ontology
			q.Classes = stmt.Tables()
		}
	}
	br, err := a.QueryBrokers(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("user agent %s: locating an MRQ agent: %w", a.Name(), err)
	}
	if len(br.Matches) == 0 && q.Ontology != "" {
		// No class specialist: fall back to any MRQ agent.
		q.Ontology, q.Classes = "", nil
		br, err = a.QueryBrokers(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("user agent %s: locating an MRQ agent: %w", a.Name(), err)
		}
	}
	if len(br.Matches) == 0 {
		return nil, fmt.Errorf("user agent %s: no multiresource query agent available", a.Name())
	}
	mrqAd := br.Matches[0]

	msg := kqml.New(kqml.AskAll, a.Name(), &kqml.SQLQuery{SQL: sql})
	msg.Language = ontology.LangSQL2
	msg.Receiver = mrqAd.Name
	reply, err := a.Call(ctx, mrqAd.Address, msg)
	if err != nil {
		return nil, fmt.Errorf("user agent %s: querying %s: %w", a.Name(), mrqAd.Name, err)
	}
	if reply.Performative != kqml.Tell {
		return nil, fmt.Errorf("user agent %s: %s: %s", a.Name(), mrqAd.Name, kqml.ReasonOf(reply))
	}
	var sr kqml.SQLResult
	if err := reply.DecodeContent(&sr); err != nil {
		return nil, err
	}
	return &sqlparse.Result{Columns: sr.Columns, Rows: sr.Rows}, nil
}

// SubmitTraced is Submit with conversation tracing: it reuses the
// context's trace ID or mints one, records the user agent's own top-level
// span, and returns the trace ID so the caller can fetch the assembled
// tree from the flight recorder (or /traces/{id} on a daemon).
func (a *Agent) SubmitTraced(ctx context.Context, sql string) (*sqlparse.Result, string, error) {
	traceID := telemetry.TraceIDFrom(ctx)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
		ctx = telemetry.WithTraceID(ctx, traceID)
	}
	start := time.Now()
	res, err := a.Submit(ctx, sql)
	span := kqml.TraceSpan{
		Agent:          a.Name(),
		Op:             telemetry.OpUserSubmit,
		Start:          start.UnixNano(),
		DurationMicros: time.Since(start).Microseconds(),
	}
	if err != nil {
		span.Err = err.Error()
	}
	telemetry.RecordSpan(traceID, span)
	return res, traceID, err
}
