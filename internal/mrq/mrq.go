// Package mrq implements the multiresource query agent (MRQ) of the
// paper's Figures 5-7 walkthrough: it receives an SQL query, determines
// which ontology classes the query requires, asks the broker for resource
// agents serving those classes, scatters sub-queries to them, assembles
// the fragments (horizontal unions and vertical key-joins), and evaluates
// the original query over the assembled data.
package mrq

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resilience"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/stats"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
	"infosleuth/internal/transport"
)

// Config configures an MRQ agent.
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
	// skips peers whose circuit is open; nil calls once (the
	// paper-faithful default).
	CallPolicy *resilience.Policy

	// World supplies the domain ontologies (class keys for fragment
	// assembly); required.
	World *ontology.World
	// Ontology names the domain this MRQ serves (used in broker
	// queries); required.
	Ontology string
	// Specialty optionally restricts the MRQ to specific classes, as
	// the paper's "MRQ2 agent ... specializes in queries over the class
	// C2"; it is advertised as content.
	Specialty []string
	// PushConstraints, when true, includes the SQL WHERE constraints in
	// broker queries so resources holding only irrelevant data are not
	// contacted, and rewrites per-resource fragment queries to push
	// evaluable selections and projections down to the resources (the
	// TSIMMIS/Garlic wrapper-pushdown idea). On by default via New.
	PushConstraints bool
	// MaxFanout bounds how many fragment fetches run concurrently within
	// one class (the scatter of Figure 7). 0 means min(8, matched
	// resources); 1 fetches serially in broker match order.
	MaxFanout int
	// Planner enables the federated query planner's decisions: semi-join
	// reduction for cross-class joins, partial-aggregate pushdown, and
	// cost-based ordering of the fragment fan-out. With it off the same
	// pipeline runs a plan that keeps the broker's match order and
	// rewrites nothing. mrqd and community.Production turn it on;
	// community.PaperFaithful never plans.
	Planner bool
	// SemiJoinMaxKeys caps how many distinct build-side join keys the
	// planner pushes as an IN constraint; a larger key set falls back to
	// the full-fragment fetch. 0 means DefaultSemiJoinMaxKeys.
	SemiJoinMaxKeys int
	// PlannerStats overrides the per-peer/per-class EWMA stats source
	// that this agent's fetches feed and its cost model consults (tests);
	// nil uses the process-wide stats.Queries aggregator.
	PlannerStats *stats.QueryStats
}

// defaultMaxFanout is the per-class fetch concurrency when Config.MaxFanout
// is unset.
const defaultMaxFanout = 8

// DefaultSemiJoinMaxKeys is the semi-join key cap when
// Config.SemiJoinMaxKeys is unset: past this many distinct build-side
// keys, the IN rewrite costs more to ship and parse than it saves.
const DefaultSemiJoinMaxKeys = 1024

// Agent is a multiresource query agent.
type Agent struct {
	*agent.Base
	cfg Config
}

// New creates an MRQ agent; call Start, then Advertise.
func New(cfg Config) (*Agent, error) {
	if cfg.World == nil {
		return nil, fmt.Errorf("mrq: config missing World")
	}
	if cfg.Ontology == "" {
		return nil, fmt.Errorf("mrq: config missing Ontology")
	}
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
	base.Handler = a.handle
	base.AdBuilder = a.buildAd
	return a, nil
}

func (a *Agent) buildAd(addr string) *ontology.Advertisement {
	ad := &ontology.Advertisement{
		Name:             a.cfg.Name,
		Address:          addr,
		Type:             ontology.TypeQuery,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangSQL2},
		Conversations:    []string{ontology.ConvAskAll},
		Capabilities: []string{
			ontology.CapMultiresourceQuery,
			ontology.CapRelationalQueryProcessing,
			ontology.CapAggregation,
		},
	}
	if len(a.cfg.Specialty) > 0 {
		ad.Content = []ontology.Fragment{{
			Ontology: a.cfg.Ontology,
			Classes:  append([]string(nil), a.cfg.Specialty...),
		}}
	}
	return ad
}

// Advertisement returns the agent's current advertisement.
func (a *Agent) Advertisement() *ontology.Advertisement { return a.buildAd(a.Addr()) }

func (a *Agent) handle(msg *kqml.Message) *kqml.Message {
	switch msg.Performative {
	case kqml.AskAll, kqml.AskOne:
		var sq kqml.SQLQuery
		if err := msg.DecodeContent(&sq); err != nil {
			return a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: kqml.SorryReasonMalformedSQL})
		}
		// The incoming trace ID flows through the context so every broker
		// query and resource fetch this run issues joins the conversation;
		// a traced run also gathers the decisions made along the way
		// (pushdown plans, failovers, plus whatever brokers and resources
		// reported on their replies) to ride back on this reply.
		ctx, col := provenance.Receive(msg)
		res, status, err := a.RunWithStatus(ctx, sq.SQL)
		var reply *kqml.Message
		if err != nil {
			reply = a.Reply(msg, kqml.Error, &kqml.SorryContent{Reason: err.Error()})
		} else {
			reply = a.Reply(msg, kqml.Tell, &kqml.SQLResult{Columns: res.Columns, Rows: res.Rows,
				Partial: status.Partial, Degraded: status.Degraded})
		}
		reply.Trace = kqml.AppendSpans(nil, col.Entries()...)
		return reply
	default:
		return a.Reply(msg, kqml.Sorry, &kqml.SorryContent{
			Reason: fmt.Sprintf("MRQ agent does not handle %s", msg.Performative),
		})
	}
}

// Status reports how complete a multiresource answer is: a query whose
// fragment sources all answered (directly or through a covering replica)
// is complete; one that lost fragment data is partial, with one
// degradation note per affected class.
type Status struct {
	// Partial is true when rows may be missing.
	Partial bool
	// Degraded lists the affected classes, in statement class order.
	Degraded []kqml.ClassDegradation
}

// Run processes one multiresource SQL query end to end. A trace ID on the
// context (telemetry.WithTraceID) makes the run and everything under it —
// broker queries, resource fetches — record conversation spans. Partial
// answers are returned without comment; use RunWithStatus to see them.
func (a *Agent) Run(ctx context.Context, sql string) (*sqlparse.Result, error) {
	res, _, err := a.RunWithStatus(ctx, sql)
	return res, err
}

// RunWithStatus is Run plus the degradation report: when resource agents
// die mid-query and no redundant advertisement covers the loss, the answer
// still comes back, flagged partial with per-class notes, rather than as a
// refusal.
func (a *Agent) RunWithStatus(ctx context.Context, sql string) (*sqlparse.Result, *Status, error) {
	traceID := telemetry.TraceIDFrom(ctx)
	if traceID == "" && telemetry.SpanRecorderActive() {
		// Always-on tail sampling: with a flight recorder installed every
		// run records spans under a minted trace ID, so a run that turns
		// out slow (or partial) can be pinned into the slowlog with its
		// full tree. Processes without a recorder — the Section 5
		// experiment harness — skip this and stay untraced.
		traceID = telemetry.NewTraceID()
		ctx = telemetry.WithTraceID(ctx, traceID)
	}
	observe := telemetry.RootObserverActive()
	if traceID == "" && !observe {
		return a.run(ctx, sql)
	}
	start := time.Now()
	res, status, err := a.run(ctx, sql)
	dur := time.Since(start)
	if traceID != "" {
		a.recordSpan(traceID, telemetry.OpMRQRun, start, &err)
	}
	if observe {
		telemetry.ObserveRoot(telemetry.RootOutcome{
			Op:             telemetry.OpMRQRun,
			TraceID:        traceID,
			DurationMicros: dur.Microseconds(),
			Err:            err != nil,
			Degraded:       status != nil && status.Partial,
		})
	}
	return res, status, err
}

// run is the one MRQ pipeline of Figure 7: locate every class's resources
// and plan (mrq.plan), run the plan's rewrite, fetch and merge each class
// not yet assembled (mrq.assemble, one goroutine per class), and evaluate
// the statement locally. Config.Planner changes only what the plan
// decides, never which of these steps run.
func (a *Agent) run(ctx context.Context, sql string) (*sqlparse.Result, *Status, error) {
	qp, err := a.plan(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	stmt, classes := qp.stmt, qp.classes
	em := provenance.For(ctx)
	a.emitPlan(em, qp, false)

	if qp.agg != nil {
		if res, ok := a.runAggregatePush(ctx, qp); ok {
			return res, &Status{}, nil
		}
		mPlanFallbacks.Inc()
		if em != nil {
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
				Plan: &kqml.PlanDecision{Class: classes[0], Aggregates: qp.agg.Items(),
					Fallback: "a partial-aggregate fetch failed; refetching full fragments"}})
		}
	}

	// Tables and degradation notes land in index-addressed slices and
	// attach in class order, so the scratch database and the status report
	// do not depend on which class finished first.
	tables := make([]*relational.Table, len(classes))
	notes := make([]*kqml.ClassDegradation, len(classes))
	var probeExtra []sqlparse.Cond
	probeIdx := -1
	if sj := qp.sj; sj != nil {
		buildClass, probeClass := classes[sj.buildIdx], classes[sj.probeIdx]
		t, note, err := a.assemble(ctx, buildClass, stmt, qp.byClass[sj.buildIdx].matches, nil)
		if err != nil {
			return nil, nil, err
		}
		tables[sj.buildIdx], notes[sj.buildIdx] = t, note
		keys, reason := semiJoinKeys(t, sj.buildCol, a.semiJoinMaxKeys())
		pd := &kqml.PlanDecision{Class: probeClass, Build: buildClass, Probe: probeClass, JoinColumn: sj.probeCol}
		if reason != "" {
			if strings.Contains(reason, "exceed") {
				mPlanKeyOverflows.Inc()
			}
			mPlanFallbacks.Inc()
			pd.Fallback = reason
		} else {
			probeExtra = []sqlparse.Cond{{Left: sqlparse.ColRef{Column: sj.probeCol}, In: true, InVals: keys}}
			probeIdx = sj.probeIdx
			pd.SemiJoin = true
			pd.Keys = len(keys)
			mPlanSemiJoins.Inc()
		}
		if em != nil {
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name, Plan: pd})
		}
	}

	var pending []int
	for i := range classes {
		if tables[i] == nil {
			pending = append(pending, i)
		}
	}
	err = forEachClass(ctx, len(pending), func(ctx context.Context, j int) error {
		i := pending[j]
		var extra []sqlparse.Cond
		if i == probeIdx {
			extra = probeExtra
		}
		t, note, err := a.assemble(ctx, classes[i], stmt, qp.byClass[i].matches, extra)
		tables[i], notes[i] = t, note
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return a.finish(stmt, tables, notes)
}

// forEachClass runs fn for classes 0..n-1, one goroutine per class, and
// returns the first error, cancelling the context the others run under.
// A single class runs inline.
func forEachClass(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n == 1 {
		return fn(ctx, 0)
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(gctx, i); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// finish attaches the assembled class tables to a scratch database, folds
// the degradation notes into a status, and evaluates the original
// statement locally — the pipeline's last step.
func (a *Agent) finish(stmt *sqlparse.Select, tables []*relational.Table, notes []*kqml.ClassDegradation) (*sqlparse.Result, *Status, error) {
	scratch := relational.NewDatabase()
	for _, table := range tables {
		if err := scratch.Attach(table); err != nil {
			return nil, nil, err
		}
	}
	status := &Status{}
	for _, note := range notes {
		if note != nil {
			status.Partial = true
			status.Degraded = append(status.Degraded, *note)
		}
	}
	if status.Partial {
		resilience.RecordPartialResult()
	}
	res, err := sqlparse.Execute(scratch, stmt)
	if err != nil {
		return nil, nil, err
	}
	return res, status, nil
}

// locateClass runs the Figure 7 broker query for one class and returns the
// matched resource advertisements, in broker match order.
func (a *Agent) locateClass(ctx context.Context, class string, pushed *constraint.Set) ([]*ontology.Advertisement, error) {
	q := &ontology.Query{
		Type:            ontology.TypeResource,
		ContentLanguage: ontology.LangSQL2,
		Ontology:        a.cfg.Ontology,
		Classes:         []string{class},
	}
	if pushed.Len() > 0 {
		q.Constraints = pushed
	}
	br, err := a.QueryBrokers(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("mrq %s: locating resources for class %s: %w", a.cfg.Name, class, err)
	}
	if len(br.Matches) == 0 {
		return nil, fmt.Errorf("mrq %s: no resources serve class %s", a.cfg.Name, class)
	}
	return br.Matches, nil
}

// assemble fetches and merges one class's fragments from its
// located matches, under an mrq.assemble span on traced runs. extra conds
// (a semi-join's IN constraint) are appended to every fragment query. The
// degradation note is non-nil when fragment data was lost with no covering
// replica (the table may then be incomplete, or — when every resource
// failed — empty).
func (a *Agent) assemble(ctx context.Context, class string, stmt *sqlparse.Select, matches []*ontology.Advertisement, extra []sqlparse.Cond) (_ *relational.Table, _ *kqml.ClassDegradation, err error) {
	if traceID := telemetry.TraceIDFrom(ctx); traceID != "" {
		defer a.recordSpan(traceID, telemetry.OpMRQAssemble, time.Now(), &err)
	}
	fp := a.planFetch(class, stmt, matches)
	// extra conds come from the planner (a semi-join's IN constraint on
	// the probe side); they are always sound to push — a row they filter
	// could never survive the local join — so they bypass the uniform
	// coverage check.
	fp.conds = append(fp.conds, extra...)
	results, lost := a.fetchFragments(ctx, &fp, matches)
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("mrq %s: assembling class %s: %w", a.cfg.Name, class, err)
	}
	var note *kqml.ClassDegradation
	if len(lost) > 0 {
		note = &kqml.ClassDegradation{Class: class}
		var reasons []string
		for _, f := range lost {
			note.Agents = append(note.Agents, f.Agent)
			reasons = append(reasons, f.Agent+": "+f.Err)
		}
		note.Reason = strings.Join(reasons, "; ")
	}
	if len(results) == 0 {
		// Every resource for the class failed with no covering replica.
		// Degrade to an empty fragment table flagged per class rather
		// than refuse the whole query — unless the ontology cannot even
		// supply a schema, where a refusal is all that's left.
		t, terr := a.emptyTable(class, fp.key)
		if terr != nil {
			return nil, nil, fmt.Errorf("mrq %s: every resource for class %s failed: %s",
				a.cfg.Name, class, note.Reason)
		}
		return t, note, nil
	}
	t, err := MergeFragments(class, fp.key, results)
	return t, note, err
}

// recordSpan records one of the MRQ's own timing spans, from start to
// now, under a traced run; deferred, it reads the error when it runs.
func (a *Agent) recordSpan(traceID, op string, start time.Time, err *error) {
	span := kqml.TraceSpan{
		Agent:          a.cfg.Name,
		Op:             op,
		Start:          start.UnixNano(),
		DurationMicros: time.Since(start).Microseconds(),
	}
	if *err != nil {
		span.Err = (*err).Error()
	}
	telemetry.RecordSpan(traceID, span)
}

// emptyTable builds an empty table for a class from its ontology schema
// (string-typed columns) — the stand-in fragment when every resource for
// the class is unreachable.
func (a *Agent) emptyTable(class, key string) (*relational.Table, error) {
	ont := a.cfg.World.Ontology(a.cfg.Ontology)
	if ont == nil {
		return nil, fmt.Errorf("mrq %s: no ontology %q for empty fragment", a.cfg.Name, a.cfg.Ontology)
	}
	slots := ont.SlotsOf(class)
	if len(slots) == 0 {
		return nil, fmt.Errorf("mrq %s: class %s has no ontology slots", a.cfg.Name, class)
	}
	cols := make([]relational.Column, 0, len(slots))
	for _, s := range slots {
		cols = append(cols, relational.Column{Name: s, Type: relational.TypeString})
	}
	return relational.NewTable(relational.Schema{Name: class, Columns: cols, Key: key})
}

// MergeFragments combines per-resource results for one class into a single
// table, in one loop for every layout. Results group by column signature:
// one group is a horizontal union (horizontal fragments and replicas), and
// groups with different column sets are vertical fragments, joined on the
// class key. A column is numeric when some group's least row by value
// holds a number in it, and a string column otherwise; every cell is first
// coerced to its column's type. Each group's rows then sort by the coerced
// key, then by value, and a row that repeats its predecessor's key (all of
// its values when the class has no key) is skipped, so among replicas that
// disagree on a key the least row by value is kept. A lone group's rows
// are the table's rows. Rows whose key appears in only some vertical
// fragments keep the columns they have; missing cells take the column's
// zero value. A fragment that names a column twice fails the merge.
//
// MergeFragments takes ownership of the rows in results: it coerces their
// cells in place, and the table it returns holds them. A caller must not
// use them again.
//
// The output is deterministic regardless of result order: groups merge in
// sorted-signature order and the table's rows sort by the class key (full
// row contents when the class has no key), so a parallel gather whose
// fragments arrive in any order builds the same table.
func MergeFragments(class, key string, results []*kqml.SQLResult) (*relational.Table, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("mrq: no fragments for class %s", class)
	}
	// Group results by column signature.
	type group struct {
		sig  string
		cols []string
		rows []relational.Row
		ki   int   // the key's index in cols, or -1
		dst  []int // each column's index in the output row
	}
	totalRows := 0
	for _, r := range results {
		for _, row := range r.Rows {
			if len(row) != len(r.Columns) {
				return nil, fmt.Errorf("mrq: fragment of %s has a row of %d values for %d columns", class, len(row), len(r.Columns))
			}
		}
		totalRows += len(r.Rows)
	}
	var groups []*group
	bySig := make(map[string]*group, len(results))
	for _, r := range results {
		sig := strings.ToLower(strings.Join(r.Columns, "\x00"))
		g, ok := bySig[sig]
		if !ok {
			// Room for every row: a lone group, the common case, fills
			// its slice in one allocation.
			g = &group{sig: sig, cols: r.Columns, rows: make([]relational.Row, 0, totalRows)}
			bySig[sig] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, r.Rows...)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].sig < groups[j].sig })

	if len(groups) > 1 && key == "" {
		return nil, fmt.Errorf("mrq: class %s has vertical fragments but no key to join on", class)
	}

	// Output columns: key first (when joining), then the rest in
	// first-seen order.
	var outCols []string
	colIdx := make(map[string]int)
	addCol := func(c string) {
		lc := strings.ToLower(c)
		if _, ok := colIdx[lc]; !ok {
			colIdx[lc] = len(outCols)
			outCols = append(outCols, c)
		}
	}
	if len(groups) > 1 {
		addCol(key)
	}
	for _, g := range groups {
		for _, c := range g.cols {
			addCol(c)
		}
	}
	keyIdx, keyed := colIdx[strings.ToLower(key)]
	if !keyed {
		keyIdx = -1
	}

	// Infer column types: a number in any group's least row by value
	// makes its column numeric.
	schemaCols := make([]relational.Column, len(outCols))
	for i, c := range outCols {
		schemaCols[i] = relational.Column{Name: c, Type: relational.TypeString}
	}
	for _, g := range groups {
		g.ki = -1
		g.dst = make([]int, len(g.cols))
		for ci, c := range g.cols {
			g.dst[ci] = colIdx[strings.ToLower(c)]
			if slices.Contains(g.dst[:ci], g.dst[ci]) {
				return nil, fmt.Errorf("mrq: fragment of %s repeats column %s", class, c)
			}
			if g.dst[ci] == keyIdx {
				g.ki = ci
			}
		}
		if len(groups) > 1 && g.ki < 0 {
			return nil, fmt.Errorf("mrq: vertical fragment of %s lacks key column %s", class, key)
		}
		if len(g.rows) == 0 {
			continue
		}
		least := g.rows[0]
		for _, row := range g.rows[1:] {
			if compareRows(row, least, g.ki) < 0 {
				least = row
			}
		}
		for ci, v := range least {
			if v.Kind() == constraint.KindNumber {
				schemaCols[g.dst[ci]].Type = relational.TypeNumber
			}
		}
	}

	// Coerce, sort and deduplicate each group. Coercing first makes keys
	// that coerce alike repeat, so they deduplicate too.
	for _, g := range groups {
		for _, row := range g.rows {
			for ci, v := range row {
				row[ci] = coerce(v, schemaCols[g.dst[ci]].Type)
			}
		}
		slices.SortFunc(g.rows, func(a, b relational.Row) int { return compareRows(a, b, g.ki) })
		g.rows = slices.CompactFunc(g.rows, func(row, prev relational.Row) bool { return repeats(row, prev, g.ki) })
	}
	schema := relational.Schema{Name: class, Columns: schemaCols}
	if keyIdx >= 0 {
		schema.Key = outCols[keyIdx]
	}
	rows := groups[0].rows
	if len(groups) > 1 {
		// Vertical fragments: a group's row lands in the output row of
		// its key, made on first sight.
		byKey := make(map[constraint.Value]relational.Row, totalRows)
		rows = make([]relational.Row, 0, totalRows)
		for _, g := range groups {
			for _, row := range g.rows {
				out := byKey[row[g.ki]]
				if out == nil {
					out = zeroRow(schemaCols)
					byKey[row[g.ki]] = out
					rows = append(rows, out)
				}
				for ci, v := range row {
					out[g.dst[ci]] = v
				}
			}
		}
		slices.SortFunc(rows, func(a, b relational.Row) int { return compareRows(a, b, keyIdx) })
	}
	return relational.NewTableOf(schema, rows)
}

// compareRows orders rows by the value at keyIdx (skipped when keyIdx is
// -1), then by all of their values in column order.
func compareRows(a, b relational.Row, keyIdx int) int {
	if keyIdx >= 0 {
		if c := a[keyIdx].Compare(b[keyIdx]); c != 0 {
			return c
		}
	}
	return slices.CompareFunc(a, b, constraint.Value.Compare)
}

// repeats reports whether a sorted row repeats its predecessor: the same
// key, or the same values when keyIdx is -1.
func repeats(row, prev relational.Row, keyIdx int) bool {
	if keyIdx >= 0 {
		return row[keyIdx].Equal(prev[keyIdx])
	}
	return row.Equal(prev)
}

func zeroRow(cols []relational.Column) relational.Row {
	out := make(relational.Row, len(cols))
	for i, c := range cols {
		if c.Type == relational.TypeNumber {
			out[i] = constraint.Num(0)
		} else {
			out[i] = constraint.Str("")
		}
	}
	return out
}

// coerce aligns a value with the inferred column type (mixed fragments can
// disagree; the table's type wins, stringifying numbers when needed).
func coerce(v constraint.Value, t relational.ColType) constraint.Value {
	if t == relational.TypeNumber && v.Kind() != constraint.KindNumber {
		return constraint.Num(0)
	}
	if t == relational.TypeString && v.Kind() != constraint.KindString {
		return constraint.Str(strings.Trim(v.String(), "'"))
	}
	return v
}
