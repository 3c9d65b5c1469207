package mrq

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
)

// The federated query planner. Every run builds a queryPlan before it
// fetches anything: every class's resources located, then — when
// Config.Planner is on — each match set cost-ranked and at most one
// structural rewrite chosen: partial-aggregate pushdown for a single-class
// aggregate query, or semi-join reduction for a cross-class equality join.
// With the planner off the plan keeps the broker's match order and chooses
// no rewrite, and the same pipeline runs it. The plan is deterministic
// given fixed stats and advertisements, every decision is emitted as
// prov.plan provenance, and every rewrite falls back to fetching the full
// fragments, so a planning MRQ never answers differently from a
// non-planning one — only cheaper.

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

// plan parses the statement and builds its plan, under an mrq.plan span
// on traced runs.
func (a *Agent) plan(ctx context.Context, sql string) (_ *queryPlan, err error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	classes := stmt.Tables()
	if len(classes) == 0 {
		return nil, fmt.Errorf("mrq %s: query references no classes", a.cfg.Name)
	}
	if traceID := telemetry.TraceIDFrom(ctx); traceID != "" {
		defer a.recordSpan(traceID, telemetry.OpMRQPlan, time.Now(), &err)
	}
	return a.buildPlan(ctx, stmt, classes)
}

// buildPlan locates every class's resources (concurrently, first error
// cancels) and, when the planner is on, cost-orders each match set and
// chooses the structural rewrite.
func (a *Agent) buildPlan(ctx context.Context, stmt *sqlparse.Select, classes []string) (*queryPlan, error) {
	var pushed *constraint.Set
	if a.cfg.PushConstraints {
		pushed = stmt.WhereConstraints()
	}
	qp := &queryPlan{stmt: stmt, classes: classes, byClass: make([]classPlan, len(classes))}
	err := forEachClass(ctx, len(classes), func(ctx context.Context, i int) error {
		m, err := a.locateClass(ctx, classes[i], pushed)
		qp.byClass[i] = classPlan{class: classes[i], matches: m}
		return err
	})
	if err != nil {
		return nil, err
	}
	if !a.cfg.Planner {
		return qp, nil
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

// emitPlan reports a built plan on a traced run: each class's fan-out
// order, then the structural rewrite or why none was chosen. A run
// reports only the orders the cost model changed and leaves each
// rewrite's outcome to the step that executes it. With intent set (Plan,
// which fetches nothing) it reports every class's pushdown shape and
// order and the rewrite that would run — a semi-join with Keys 0, since
// the key count is unknown until the build side is fetched.
func (a *Agent) emitPlan(em *provenance.Emitter, qp *queryPlan, intent bool) {
	if em == nil {
		return
	}
	for i := range qp.byClass {
		cp := &qp.byClass[i]
		if intent {
			fp := a.planFetch(cp.class, qp.stmt, cp.matches)
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPushdown, Agent: a.cfg.Name, Pushdown: a.pushdownDecision(&fp)})
		}
		if intent || cp.costs != nil {
			pd := &kqml.PlanDecision{Class: cp.class, CostsMicros: cp.costs}
			for _, ad := range cp.matches {
				pd.Order = append(pd.Order, ad.Name)
			}
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name, Plan: pd})
		}
	}
	var pd *kqml.PlanDecision
	switch {
	case qp.agg != nil && intent:
		pd = &kqml.PlanDecision{Class: qp.classes[0], Aggregates: qp.agg.Items()}
	case qp.aggFallback != "":
		pd = &kqml.PlanDecision{Class: qp.classes[0], Fallback: qp.aggFallback}
	case qp.sj != nil && intent:
		sj := qp.sj
		pd = &kqml.PlanDecision{Class: qp.classes[sj.probeIdx], SemiJoin: true,
			Build: qp.classes[sj.buildIdx], Probe: qp.classes[sj.probeIdx], JoinColumn: sj.probeCol}
	case qp.sjFallback != "":
		pd = &kqml.PlanDecision{Class: strings.Join(qp.classes, "+"), Fallback: qp.sjFallback}
	}
	if pd != nil {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name, Plan: pd})
	}
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
	fp := a.planFetch(class, stmt, matches)
	if len(fp.conds) != len(stmt.Where) {
		return nil, "not every WHERE conjunct is pushable"
	}
	h := ontology.DefaultHierarchy()
	for _, ad := range matches {
		if !h.Satisfies(ad.Capabilities, ontology.CapAggregation) {
			return nil, fmt.Sprintf("%s cannot aggregate", ad.Name)
		}
		if !ad.CoversColumns(a.cfg.Ontology, class, p.Columns(), fp.ont) {
			return nil, fmt.Sprintf("%s does not cover the aggregated columns", ad.Name)
		}
	}
	if len(matches) > 1 {
		frags := make([][]*ontology.Fragment, len(matches))
		for i, ad := range matches {
			frags[i] = fp.servingFragments(ad)
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

// semiJoinMaxKeys resolves the configured key cap.
func (a *Agent) semiJoinMaxKeys() int {
	if a.cfg.SemiJoinMaxKeys > 0 {
		return a.cfg.SemiJoinMaxKeys
	}
	return DefaultSemiJoinMaxKeys
}

// semiJoinKeys extracts the sorted distinct values of the build table's
// join column, or a fallback reason: column missing, key set over the cap,
// no keys at all, or a value the SQL subset cannot render (a string with
// both quote characters).
func semiJoinKeys(t *relational.Table, col string, maxKeys int) ([]constraint.Value, string) {
	ci := t.Schema().ColIndex(col)
	if ci < 0 {
		return nil, fmt.Sprintf("build table lacks join column %s", col)
	}
	seen := make(map[constraint.Value]bool)
	var keys []constraint.Value
	reason := ""
	t.Scan(func(r relational.Row) bool {
		v := r[ci]
		if seen[v] {
			return true
		}
		seen[v] = true
		if !renderableKey(v) {
			reason = fmt.Sprintf("join key %s not renderable in the SQL subset", v)
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
// SQL subset's lexer when rendered into an IN list: the lexer has no
// escaping, so a string may hold one kind of quote but not both.
func renderableKey(v constraint.Value) bool {
	return v.Kind() != constraint.KindString || !strings.Contains(v.Text(), "'") || !strings.Contains(v.Text(), `"`)
}

// runAggregatePush fans the partial-aggregate query out to every fragment
// and merges the partials at the MRQ. A resource that rejects the rewritten
// query (no aggregation capability) is refetched whole and its partial
// computed here; any other failed fetch abandons the push (ok=false) and
// the caller assembles the class in full, which has the failover
// machinery.
func (a *Agent) runAggregatePush(ctx context.Context, qp *queryPlan) (*sqlparse.Result, bool) {
	cp := &qp.byClass[0]
	fp := a.planFetch(cp.class, qp.stmt, cp.matches)
	sql := qp.agg.FragmentSQL(cp.class, fp.conds)
	partials := make([]*sqlparse.Result, len(cp.matches))
	errs := a.gather(ctx, len(cp.matches), func(i int) error {
		sr, _, fallback, err := a.fetch(ctx, cp.class, sql, true, cp.matches[i])
		if err != nil {
			return err
		}
		if !fallback {
			partials[i] = &sqlparse.Result{Columns: sr.Columns, Rows: sr.Rows}
			return nil
		}
		t, err := MergeFragments(cp.class, fp.key, []*kqml.SQLResult{sr})
		if err != nil {
			return err
		}
		db := relational.NewDatabase()
		if err := db.Attach(t); err != nil {
			return err
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return err
		}
		partials[i], err = sqlparse.Execute(db, stmt)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, false
		}
	}
	merged, err := qp.agg.Merge(partials)
	if err != nil {
		return nil, false
	}
	if qp.stmt.OrderBy != "" {
		if err := merged.Sort(qp.stmt.OrderBy, qp.stmt.OrderDesc); err != nil {
			return nil, false
		}
	}
	mPlanAggPushdowns.Inc()
	if em := provenance.For(ctx); em != nil {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPlan, Agent: a.cfg.Name,
			Plan: &kqml.PlanDecision{Class: cp.class, Aggregates: qp.agg.Items()}})
	}
	return merged, true
}

// Plan builds and reports the federated plan for a query without fetching
// any fragments: broker discovery runs (the plan depends on the match
// sets), then the chosen fan-out order, pushdown shape, and rewrites are
// emitted as provenance for `isquery -plan`.
func (a *Agent) Plan(ctx context.Context, sql string) error {
	qp, err := a.plan(ctx, sql)
	if err != nil {
		return err
	}
	a.emitPlan(provenance.For(ctx), qp, true)
	return nil
}
