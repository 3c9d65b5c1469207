package mrq

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
)

// The federated query planner. Before fanning out, a planning MRQ builds a
// queryPlan: every class's resources located and cost-ranked, plus at most
// one structural rewrite — partial-aggregate pushdown for a single-class
// aggregate query, or semi-join reduction for a cross-class equality join.
// The plan is deterministic given fixed stats and advertisements, every
// decision is emitted as prov.plan provenance, and every rewrite carries a
// fallback to the PR 4 full-fragment path so a planning MRQ never answers
// differently from a non-planning one — only cheaper.

// classPlan is one class's located, cost-ordered match set.
type classPlan struct {
	class   string
	matches []*ontology.Advertisement
	// costs are the modeled per-resource costs aligned with matches; nil
	// when no stats signal existed and the broker order was kept.
	costs []int64
}

// semiJoinPlan is a chosen semi-join reduction: fetch the build side
// first, push its distinct join keys as an IN constraint on the probe
// side's join column.
type semiJoinPlan struct {
	buildIdx, probeIdx int // indexes into queryPlan.classes
	buildCol, probeCol string
}

// queryPlan is the planner's output for one statement.
type queryPlan struct {
	stmt    *sqlparse.Select
	classes []string
	byClass []classPlan
	// agg is the partial-aggregate decomposition, nil with aggFallback
	// explaining why when the statement had aggregates but no sound push.
	agg         *sqlparse.PartialAggPlan
	aggFallback string
	// sj is the semi-join choice, nil with sjFallback explaining why when
	// the statement had a cross-class join but no sound rewrite.
	sj         *semiJoinPlan
	sjFallback string
}

// buildPlan locates every class's resources (concurrently, first error
// cancels), cost-orders each match set, and chooses the structural
// rewrite.
func (a *Agent) buildPlan(ctx context.Context, stmt *sqlparse.Select, classes []string, pushed *constraint.Set) (*queryPlan, error) {
	qp := &queryPlan{stmt: stmt, classes: classes, byClass: make([]classPlan, len(classes))}
	for i, class := range classes {
		qp.byClass[i].class = class
	}
	if len(classes) == 1 {
		m, err := a.locateClass(ctx, classes[0], pushed)
		if err != nil {
			return nil, err
		}
		qp.byClass[0].matches = m
	} else {
		gctx, cancel := context.WithCancel(ctx)
		var (
			wg       sync.WaitGroup
			once     sync.Once
			firstErr error
		)
		for i, class := range classes {
			wg.Add(1)
			go func(i int, class string) {
				defer wg.Done()
				m, err := a.locateClass(gctx, class, pushed)
				if err != nil {
					once.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				qp.byClass[i].matches = m
			}(i, class)
		}
		wg.Wait()
		cancel()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	for i := range qp.byClass {
		cp := &qp.byClass[i]
		cp.matches, cp.costs = a.orderMatches(cp.class, pushed, cp.matches)
	}
	if len(classes) == 1 {
		qp.agg, qp.aggFallback = a.planAggregate(stmt, classes[0], qp.byClass[0].matches)
	} else {
		qp.sj, qp.sjFallback = a.chooseSemiJoin(stmt, classes, qp.byClass)
	}
	return qp, nil
}

// buildPlanSpan wraps buildPlan in an mrq.plan span on traced runs.
func (a *Agent) buildPlanSpan(ctx context.Context, stmt *sqlparse.Select, classes []string, pushed *constraint.Set, traceID string) (*queryPlan, error) {
	if traceID == "" {
		return a.buildPlan(ctx, stmt, classes, pushed)
	}
	start := time.Now()
	qp, err := a.buildPlan(ctx, stmt, classes, pushed)
	span := kqml.TraceSpan{
		Agent:          a.cfg.Name,
		Op:             telemetry.OpMRQPlan,
		Start:          start.UnixNano(),
		DurationMicros: time.Since(start).Microseconds(),
	}
	if err != nil {
		span.Err = err.Error()
	}
	telemetry.RecordSpan(traceID, span)
	return qp, err
}

// planAggregate decides partial-aggregate pushdown for a single-class
// aggregate statement. The decomposition is only sound when the fragments
// partition the class data: MergeFragments deduplicates identical rows
// across overlapping replicas, but partial counts cannot, so overlap
// (advertised or possible) forces the fallback. Every WHERE conjunct must
// also push — a conjunct applied only at the MRQ cannot filter rows that
// were already folded into a partial.
func (a *Agent) planAggregate(stmt *sqlparse.Select, class string, matches []*ontology.Advertisement) (*sqlparse.PartialAggPlan, string) {
	if len(stmt.Aggs) == 0 {
		return nil, ""
	}
	p, ok := sqlparse.PlanPartialAggregates(stmt)
	if !ok {
		return nil, "statement shape not decomposable"
	}
	ont := a.cfg.World.Ontology(a.cfg.Ontology)
	key := ""
	if ont != nil {
		key = ont.KeyOf(class)
	}
	fp := a.planFetch(class, key, stmt, matches)
	if len(fp.conds) != len(stmt.Where) {
		return nil, "not every WHERE conjunct is pushable"
	}
	h := ontology.DefaultHierarchy()
	for _, ad := range matches {
		if !h.Satisfies(ad.Capabilities, ontology.CapAggregation) {
			return nil, fmt.Sprintf("%s cannot aggregate", ad.Name)
		}
		if !ad.CoversColumns(a.cfg.Ontology, class, p.Columns(), ont) {
			return nil, fmt.Sprintf("%s does not cover the aggregated columns", ad.Name)
		}
	}
	if len(matches) > 1 {
		frags := make([][]*ontology.Fragment, len(matches))
		for i, ad := range matches {
			frags[i] = servingFragments(ad, a.cfg.Ontology, class, ont)
		}
		for i := range matches {
			for j := i + 1; j < len(matches); j++ {
				for _, fi := range frags[i] {
					for _, fj := range frags[j] {
						if fi.Constraints.Overlaps(fj.Constraints) {
							return nil, fmt.Sprintf("fragments of %s and %s may overlap", matches[i].Name, matches[j].Name)
						}
					}
				}
			}
		}
	}
	return p, ""
}

// chooseSemiJoin picks a semi-join reduction for a cross-class equality
// join: the smaller side (by advertised row estimates, else EWMA reply
// bytes) builds, and its distinct join keys are pushed as an IN constraint
// on the bigger side's join column. Only sound, attributable equality
// joins qualify; the returned reason explains the last disqualification.
func (a *Agent) chooseSemiJoin(stmt *sqlparse.Select, classes []string, plans []classPlan) (*semiJoinPlan, string) {
	if stmt.Union != nil {
		return nil, "UNION queries are not rewritten"
	}
	classIdx := make(map[string]int, len(classes))
	for i, c := range classes {
		classIdx[strings.ToLower(c)] = i
	}
	alias := make(map[string]string, len(stmt.From))
	refCount := make(map[string]int, len(stmt.From))
	for _, tr := range stmt.From {
		alias[strings.ToLower(tr.Binding())] = strings.ToLower(tr.Name)
		refCount[strings.ToLower(tr.Name)]++
	}
	owner := func(c sqlparse.ColRef) string {
		if c.Table == "" {
			return "" // unattributable without a qualifier across classes
		}
		t := strings.ToLower(c.Table)
		if real, ok := alias[t]; ok {
			return real
		}
		return t
	}
	ont := a.cfg.World.Ontology(a.cfg.Ontology)
	reason := ""
	for _, c := range stmt.Where {
		if !c.RightIsCol || c.Op != sqlparse.OpEq {
			continue
		}
		lc, rc := owner(c.Left), owner(c.RightCol)
		if lc == "" || rc == "" {
			reason = fmt.Sprintf("join %s not attributable to classes", c)
			continue
		}
		if lc == rc {
			continue // intra-class comparison
		}
		if refCount[lc] != 1 || refCount[rc] != 1 {
			reason = fmt.Sprintf("join %s references a class more than once", c)
			continue
		}
		li, lok := classIdx[lc]
		ri, rok := classIdx[rc]
		if !lok || !rok {
			continue
		}
		lSize, lOK := a.classRows(plans[li].matches)
		rSize, rOK := a.classRows(plans[ri].matches)
		if !lOK || !rOK {
			lSize, lOK = a.classBytes(classes[li], plans[li].matches)
			rSize, rOK = a.classBytes(classes[ri], plans[ri].matches)
			if !lOK || !rOK {
				reason = "no sizing signal (row estimates or byte stats) for both sides"
				continue
			}
		}
		sj := &semiJoinPlan{
			buildIdx: li, probeIdx: ri,
			buildCol: strings.ToLower(c.Left.Column),
			probeCol: strings.ToLower(c.RightCol.Column),
		}
		if rSize < lSize || (rSize == lSize && ri < li) {
			sj.buildIdx, sj.probeIdx = ri, li
			sj.buildCol, sj.probeCol = sj.probeCol, sj.buildCol
		}
		covered := true
		for _, ad := range plans[sj.probeIdx].matches {
			if !ad.CoversColumns(a.cfg.Ontology, classes[sj.probeIdx], []string{sj.probeCol}, ont) {
				covered = false
				reason = fmt.Sprintf("%s does not cover probe join column %s", ad.Name, sj.probeCol)
				break
			}
		}
		if !covered {
			continue
		}
		return sj, ""
	}
	return nil, reason
}

// classRows sums the advertised row estimates across a match set; false
// when any resource left the hint unadvertised.
func (a *Agent) classRows(matches []*ontology.Advertisement) (float64, bool) {
	total := int64(0)
	for _, ad := range matches {
		if ad.Properties.EstimatedRows <= 0 {
			return 0, false
		}
		total += ad.Properties.EstimatedRows
	}
	return float64(total), true
}

// classBytes sums the EWMA reply bytes across a match set; false when any
// resource has no byte history for the class.
func (a *Agent) classBytes(class string, matches []*ontology.Advertisement) (float64, bool) {
	qs := a.plannerStats()
	total := 0.0
	for _, ad := range matches {
		pcs, ok := qs.Peek(ad.Name, class)
		if !ok || pcs.EWMABytes <= 0 {
			return 0, false
		}
		total += pcs.EWMABytes
	}
	return total, true
}

// runPlanned executes one query through the planner: build the plan, run
// the aggregate or semi-join rewrite when one was chosen (falling back to
// the normal assembly when a rewrite dies at execution time), assemble
// the remaining classes concurrently in cost order, and evaluate locally.
func (a *Agent) runPlanned(ctx context.Context, stmt *sqlparse.Select, classes []string, pushed *constraint.Set) (*sqlparse.Result, *Status, error) {
	traceID := telemetry.TraceIDFrom(ctx)
	qp, err := a.buildPlanSpan(ctx, stmt, classes, pushed, traceID)
	if err != nil {
		return nil, nil, err
	}
	em := provenance.For(ctx, traceID)
	if em != nil {
		for i := range qp.byClass {
			cp := &qp.byClass[i]
			if cp.costs == nil {
				continue
			}
			pd := &kqml.PlanDecision{Class: cp.class, CostsMicros: cp.costs}
			for _, ad := range cp.matches {
				pd.Order = append(pd.Order, ad.Name)
			}
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name, Plan: pd})
		}
	}

	if qp.agg != nil {
		if res, status, ok := a.runAggregatePush(ctx, qp, traceID); ok {
			return res, status, nil
		}
		mPlanFallbacks.Inc()
		if em != nil {
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
				Plan: &kqml.PlanDecision{Class: classes[0], Aggregates: qp.agg.Items(),
					Fallback: "a partial-aggregate fetch failed; refetching full fragments"}})
		}
	} else if qp.aggFallback != "" && em != nil {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: classes[0], Fallback: qp.aggFallback}})
	}

	tables := make([]*relational.Table, len(classes))
	notes := make([]*kqml.ClassDegradation, len(classes))
	var probeExtra []sqlparse.Cond
	probeIdx := -1

	if qp.sj != nil {
		sj := qp.sj
		buildClass, probeClass := classes[sj.buildIdx], classes[sj.probeIdx]
		t, note, err := a.assembleLocated(ctx, buildClass, stmt, qp.byClass[sj.buildIdx].matches, nil, traceID)
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
			probeExtra = []sqlparse.Cond{{
				Left:   sqlparse.ColRef{Column: sj.probeCol},
				In:     true,
				InVals: keys,
			}}
			probeIdx = sj.probeIdx
			pd.SemiJoin = true
			pd.Keys = len(keys)
			mPlanSemiJoins.Inc()
		}
		if em != nil {
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name, Plan: pd})
		}
	} else if qp.sjFallback != "" && em != nil {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: strings.Join(classes, "+"), Fallback: qp.sjFallback}})
	}

	// Assemble everything not already assembled, concurrently (the build
	// side of a semi-join is already in place).
	var pending []int
	for i := range classes {
		if tables[i] == nil {
			pending = append(pending, i)
		}
	}
	extraFor := func(i int) []sqlparse.Cond {
		if i == probeIdx {
			return probeExtra
		}
		return nil
	}
	if len(pending) == 1 {
		i := pending[0]
		t, note, err := a.assembleLocated(ctx, classes[i], stmt, qp.byClass[i].matches, extraFor(i), traceID)
		if err != nil {
			return nil, nil, err
		}
		tables[i], notes[i] = t, note
	} else if len(pending) > 1 {
		gctx, cancel := context.WithCancel(ctx)
		var (
			wg       sync.WaitGroup
			once     sync.Once
			firstErr error
		)
		for _, i := range pending {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t, note, err := a.assembleLocated(gctx, classes[i], stmt, qp.byClass[i].matches, extraFor(i), traceID)
				if err != nil {
					once.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				tables[i], notes[i] = t, note
			}(i)
		}
		wg.Wait()
		cancel()
		if firstErr != nil {
			return nil, nil, firstErr
		}
	}
	return a.finish(stmt, tables, notes)
}

// semiJoinMaxKeys resolves the configured key cap.
func (a *Agent) semiJoinMaxKeys() int {
	if a.cfg.SemiJoinMaxKeys > 0 {
		return a.cfg.SemiJoinMaxKeys
	}
	return DefaultSemiJoinMaxKeys
}

// semiJoinKeys extracts the sorted distinct values of the build table's
// join column, or a fallback reason: column missing, key set over the cap,
// no keys at all, or a value the SQL subset cannot render (exponent-form
// numbers, strings with embedded quotes).
func semiJoinKeys(t *relational.Table, col string, maxKeys int) ([]constraint.Value, string) {
	ci := t.Schema().ColIndex(col)
	if ci < 0 {
		return nil, fmt.Sprintf("build table lacks join column %s", col)
	}
	seen := make(map[string]bool)
	var keys []constraint.Value
	reason := ""
	t.Scan(func(r relational.Row) bool {
		v := r[ci]
		k := v.String()
		if seen[k] {
			return true
		}
		seen[k] = true
		if !renderableKey(v) {
			reason = fmt.Sprintf("join key %s not renderable in the SQL subset", k)
			return false
		}
		keys = append(keys, v)
		if len(keys) > maxKeys {
			reason = fmt.Sprintf("distinct join keys exceed the %d-key cap", maxKeys)
			return false
		}
		return true
	})
	if reason != "" {
		return nil, reason
	}
	if len(keys) == 0 {
		return nil, "build side produced no join keys"
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return keys, ""
}

// renderableKey reports whether a value survives a round trip through the
// SQL subset's lexer when rendered into an IN list: strings must carry no
// embedded quote (the lexer has no escaping) and numbers must render in
// plain digit form (the lexer reads no exponents).
func renderableKey(v constraint.Value) bool {
	s := v.String()
	if v.Kind() == constraint.KindString {
		return strings.Count(s, "'") == 2
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' || (c == '-' && i == 0) {
			continue
		}
		return false
	}
	return true
}

// runAggregatePush fans the partial-aggregate query out to every fragment
// and merges the partials at the MRQ. A resource that rejects the rewritten
// query (no aggregation capability) is refetched as SELECT * and its
// partial computed locally; a transport failure aborts the whole push
// (ok=false) and the caller falls back to the normal full-fragment
// assembly, which has the failover machinery.
func (a *Agent) runAggregatePush(ctx context.Context, qp *queryPlan, traceID string) (*sqlparse.Result, *Status, bool) {
	class := qp.classes[0]
	cp := &qp.byClass[0]
	key := ""
	if ont := a.cfg.World.Ontology(a.cfg.Ontology); ont != nil {
		key = ont.KeyOf(class)
	}
	fp := a.planFetch(class, key, qp.stmt, cp.matches)
	sql := qp.agg.FragmentSQL(class, fp.conds)

	n := len(cp.matches)
	fanout := a.cfg.MaxFanout
	if fanout <= 0 {
		fanout = defaultMaxFanout
	}
	if fanout > n {
		fanout = n
	}
	partials := make([]*sqlparse.Result, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fanout; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil || failed.Load() {
					failed.Store(true)
					return
				}
				pr, err := a.fetchPartial(ctx, class, key, sql, fp.conds, qp.agg, cp.matches[i], traceID)
				if err != nil {
					failed.Store(true)
					return
				}
				partials[i] = pr
			}
		}()
	}
	wg.Wait()
	if failed.Load() || ctx.Err() != nil {
		return nil, nil, false
	}
	merged, err := qp.agg.Merge(partials)
	if err != nil {
		return nil, nil, false
	}
	if qp.stmt.OrderBy != "" {
		if err := merged.Sort(qp.stmt.OrderBy, qp.stmt.OrderDesc); err != nil {
			return nil, nil, false
		}
	}
	mPlanAggPushdowns.Inc()
	if em := provenance.For(ctx, traceID); em != nil {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: class, Aggregates: qp.agg.Items()}})
	}
	return merged, &Status{}, true
}

// fetchPartial fetches one fragment's partial aggregates, with the
// SELECT-* fallback computed locally when the resource rejects the
// rewritten query.
func (a *Agent) fetchPartial(ctx context.Context, class, key, sql string, conds []sqlparse.Cond, plan *sqlparse.PartialAggPlan, ad *ontology.Advertisement, traceID string) (*sqlparse.Result, error) {
	mFanoutInflight.Add(1)
	mFetchTotal.Inc()
	defer mFanoutInflight.Add(-1)
	spanStart := time.Now()
	pr, err := a.fetchPartialCall(ctx, class, key, sql, conds, plan, ad, traceID)
	if traceID != "" {
		span := kqml.TraceSpan{
			Agent:          a.cfg.Name,
			Op:             telemetry.OpMRQFetch,
			Start:          spanStart.UnixNano(),
			DurationMicros: time.Since(spanStart).Microseconds(),
		}
		if err != nil {
			span.Err = err.Error()
			mFetchErrors.Inc()
		}
		telemetry.RecordSpan(traceID, span)
	} else if err != nil {
		mFetchErrors.Inc()
	}
	return pr, err
}

func (a *Agent) fetchPartialCall(ctx context.Context, class, key, sql string, conds []sqlparse.Cond, plan *sqlparse.PartialAggPlan, ad *ontology.Advertisement, traceID string) (*sqlparse.Result, error) {
	start := time.Now()
	fallback := false
	reply, err := a.ask(ctx, ad, sql, traceID)
	if err == nil && reply.Performative != kqml.Tell {
		// The resource rejected the partial-aggregate query — it cannot
		// aggregate after all. Fetch the raw fragment and fold it down
		// here instead of losing the push for everyone else.
		mPushdownFallbacks.Inc()
		fallback = true
		reply, err = a.ask(ctx, ad, "SELECT * FROM "+class, traceID)
	}
	received := int64(0)
	if err == nil && reply != nil {
		received = int64(len(reply.Content))
	}
	latency := time.Since(start)
	statsQueries := a.plannerStats()
	statsQueries.Observe(ad.Name, class, latency, received, err != nil)
	if em := provenance.For(ctx, traceID); em != nil {
		fr := &kqml.FetchReport{
			Resource:      ad.Name,
			Class:         class,
			SQL:           sql,
			Pushed:        !fallback,
			Fallback:      fallback,
			Bytes:         received,
			LatencyMicros: latency.Microseconds(),
		}
		if err != nil {
			fr.Err = err.Error()
		} else if reply != nil && reply.Performative != kqml.Tell {
			fr.Err = kqml.ReasonOf(reply)
		}
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvFetch, Agent: a.cfg.Name, Fetch: fr})
	}
	if err != nil {
		return nil, err
	}
	provenance.CollectReply(ctx, reply)
	if reply.Performative != kqml.Tell {
		return nil, fmt.Errorf("%s", kqml.ReasonOf(reply))
	}
	var sr kqml.SQLResult
	if err := reply.DecodeContent(&sr); err != nil {
		return nil, err
	}
	mFetchBytes.Add(received)
	if !fallback {
		return &sqlparse.Result{Columns: sr.Columns, Rows: sr.Rows}, nil
	}
	// Compute the partial locally over the raw fragment.
	t, err := MergeFragments(class, key, []*kqml.SQLResult{&sr})
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase()
	if err := db.Attach(t); err != nil {
		return nil, err
	}
	partialStmt, err := sqlparse.Parse(plan.FragmentSQL(class, conds))
	if err != nil {
		return nil, err
	}
	return sqlparse.Execute(db, partialStmt)
}

// Plan builds and reports the federated plan for a query without fetching
// any fragments: broker discovery runs (the plan depends on the match
// sets), then the chosen fan-out order, pushdown shape, and rewrites are
// emitted as provenance for `isquery -plan`. Semi-join key counts are
// unknown without executing, so the decision reports the rewrite with
// Keys 0.
func (a *Agent) Plan(ctx context.Context, sql string) error {
	traceID := telemetry.TraceIDFrom(ctx)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	classes := stmt.Tables()
	if len(classes) == 0 {
		return fmt.Errorf("mrq %s: query references no classes", a.cfg.Name)
	}
	var pushed *constraint.Set
	if a.cfg.PushConstraints {
		pushed = stmt.WhereConstraints()
	}
	qp, err := a.buildPlanSpan(ctx, stmt, classes, pushed, traceID)
	if err != nil {
		return err
	}
	em := provenance.For(ctx, traceID)
	if em == nil {
		return nil
	}
	ont := a.cfg.World.Ontology(a.cfg.Ontology)
	for i, class := range classes {
		cp := &qp.byClass[i]
		key := ""
		if ont != nil {
			key = ont.KeyOf(class)
		}
		fp := a.planFetch(class, key, stmt, cp.matches)
		pushPD := &kqml.PushdownDecision{Class: class, Blocked: fp.blocked, Columns: fp.cols}
		for _, c := range fp.conds {
			pushPD.Pushed = append(pushPD.Pushed, c.String())
		}
		if !a.cfg.PushConstraints {
			pushPD.Fallback = "constraint pushdown disabled"
		}
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPushdown, Agent: a.cfg.Name, Pushdown: pushPD})
		pd := &kqml.PlanDecision{Class: class, CostsMicros: cp.costs}
		for _, ad := range cp.matches {
			pd.Order = append(pd.Order, ad.Name)
		}
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name, Plan: pd})
	}
	switch {
	case qp.agg != nil:
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: classes[0], Aggregates: qp.agg.Items()}})
	case qp.aggFallback != "":
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: classes[0], Fallback: qp.aggFallback}})
	case qp.sj != nil:
		sj := qp.sj
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: classes[sj.probeIdx], SemiJoin: true,
				Build: classes[sj.buildIdx], Probe: classes[sj.probeIdx], JoinColumn: sj.probeCol}})
	case qp.sjFallback != "":
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: strings.Join(classes, "+"), Fallback: qp.sjFallback}})
	}
	return nil
}
