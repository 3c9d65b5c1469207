package mrq

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
)

// fetchPlan is the per-class pushdown decision, resolved against the
// broker's matches: which WHERE conjuncts every matched resource can
// evaluate, and which class columns the outer statement needs.
type fetchPlan struct {
	class string
	key   string
	ont   *ontology.Ontology
	onto  string // ontology name, for coverage checks
	// conds are pushed to every resource. A conjunct is pushed only when
	// ALL matched advertisements cover its column: with vertical
	// fragments, a conjunct evaluated by only some fragments would drop
	// rows that the key-join then rebuilds from the other fragments with
	// zero-filled cells — cells the local re-filter can wrongly admit.
	// Uniform filtering keeps every fragment's view of the key set
	// consistent.
	conds []sqlparse.Cond
	// cols is the needed projection including the class key (so
	// MergeFragments can still join vertical fragments), lowercased; nil
	// means SELECT *. Each resource's projection is further narrowed to
	// the columns it advertises.
	cols []string
	// blocked records, for decision provenance, each conjunct that could
	// not be pushed and why ("price > 10: column price not covered by
	// R2"). Populated only while planning; never affects execution.
	blocked []string
}

// planFetch computes the pushdown plan for one class. With PushConstraints
// off (or no safe rewrite available) the plan degenerates to the plain
// SELECT * fetch.
func (a *Agent) planFetch(class string, stmt *sqlparse.Select, matches []*ontology.Advertisement) fetchPlan {
	plan := fetchPlan{
		class: class,
		ont:   a.cfg.World.Ontology(a.cfg.Ontology),
		onto:  a.cfg.Ontology,
	}
	if plan.ont != nil {
		plan.key = plan.ont.KeyOf(class)
	}
	if !a.cfg.PushConstraints {
		return plan
	}
	pp := stmt.PushPlanFor(class)
	for _, c := range pp.Conds {
		pushable := true
		for _, ad := range matches {
			if !ad.CoversColumns(plan.onto, class, []string{c.Left.Column}, plan.ont) {
				pushable = false
				plan.blocked = append(plan.blocked,
					fmt.Sprintf("%s: column %s not covered by %s", c, c.Left.Column, ad.Name))
				break
			}
		}
		if pushable {
			plan.conds = append(plan.conds, c)
		}
	}
	// Projection pushdown needs the class key (vertical joins and the
	// explicit column order both depend on it) and a reliable column
	// attribution; a SELECT * statement keeps the resource's own schema
	// order, so it is never narrowed.
	if !pp.AllCols && plan.key != "" {
		keyLC := strings.ToLower(plan.key)
		hasKey := false
		for _, c := range pp.Cols {
			if c == keyLC {
				hasKey = true
				break
			}
		}
		cols := pp.Cols
		if !hasKey {
			cols = append(append(make([]string, 0, len(pp.Cols)+1), keyLC), pp.Cols...)
		}
		plan.cols = cols
	}
	return plan
}

// sqlFor renders the fragment query for one matched resource, narrowing
// the projection to the columns that resource advertises. projCols and
// fullCols size the narrowed and advertised column sets for the
// bytes-saved estimate (both 0 when the projection is not narrowed).
func (p *fetchPlan) sqlFor(ad *ontology.Advertisement) (sql string, pushed bool, projCols, fullCols int) {
	cols := p.cols
	if cols != nil {
		adCols := ad.AdvertisedColumns(p.onto, p.class, p.ont)
		if adCols == nil || !adCols[strings.ToLower(p.key)] {
			cols = nil // cannot keep the join key; fetch everything
		} else {
			narrowed := make([]string, 0, len(cols))
			for _, c := range cols {
				if adCols[c] {
					narrowed = append(narrowed, c)
				}
			}
			if len(narrowed) < len(adCols) {
				projCols, fullCols = len(narrowed), len(adCols)
			}
			cols = narrowed
		}
	}
	if cols == nil && len(p.conds) == 0 {
		return "SELECT * FROM " + p.class, false, 0, 0
	}
	return sqlparse.RenderFragmentSelect(p.class, cols, p.conds), true, projCols, fullCols
}

// pushdownDecision reports the plan's fragment query shape.
func (a *Agent) pushdownDecision(p *fetchPlan) *kqml.PushdownDecision {
	pd := &kqml.PushdownDecision{Class: p.class, Blocked: p.blocked, Columns: p.cols}
	for _, c := range p.conds {
		pd.Pushed = append(pd.Pushed, c.String())
	}
	if !a.cfg.PushConstraints {
		pd.Fallback = "constraint pushdown disabled"
	}
	return pd
}

// fetchFailure is one resource whose fragment fetch failed with no
// succeeded redundant advertisement covering its columns.
type fetchFailure struct {
	// Agent names the failed resource agent.
	Agent string
	// Err is the fetch error.
	Err string
}

// fetchFragments gathers one class's fragments from every matched
// resource. Results come back in broker match order (compacted over
// failures), so arrival order can never change what MergeFragments sees.
//
// Failed fetches go through a failover pass before being reported: a
// failure whose advertised columns are fully covered by a succeeded
// advertisement is absorbed — Section 4.2.1's redundant advertisements
// doing their job, since the replica's rows are already in the result set
// and MergeFragments deduplicates the union. Only uncovered failures come
// back, sorted by agent name.
func (a *Agent) fetchFragments(ctx context.Context, plan *fetchPlan, matches []*ontology.Advertisement) ([]*kqml.SQLResult, []fetchFailure) {
	traceID := telemetry.TraceIDFrom(ctx)
	em := provenance.For(ctx)
	if em != nil {
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvPushdown, Agent: a.cfg.Name, Pushdown: a.pushdownDecision(plan)})
	}
	n := len(matches)
	results := make([]*kqml.SQLResult, n)
	errs := a.gather(ctx, n, func(i int) error {
		sql, pushed, projCols, fullCols := plan.sqlFor(matches[i])
		sr, bytes, fallback, err := a.fetch(ctx, plan.class, sql, pushed, matches[i])
		if err == nil && !fallback && projCols > 0 && fullCols > projCols {
			// The unpushed reply would have carried all advertised columns
			// at roughly proportional size; credit the difference.
			mPushdownSavedBytes.Add(bytes * int64(fullCols-projCols) / int64(projCols))
		}
		results[i] = sr
		return err
	})

	out := results[:0]
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	var (
		lost  []fetchFailure
		okAds []*ontology.Advertisement
	)
	for i, err := range errs {
		if err == nil {
			continue
		}
		if okAds == nil {
			for j, e := range errs {
				if e == nil {
					okAds = append(okAds, matches[j])
				}
			}
		}
		e := err.Error()
		if replica := plan.coveringReplica(matches[i], okAds); replica != nil {
			resilience.RecordFailover()
			if traceID != "" {
				telemetry.RecordSpan(traceID, kqml.TraceSpan{
					Agent: matches[i].Name,
					Op:    telemetry.OpFailover,
					Start: time.Now().UnixNano(),
					Err:   e,
				})
			}
			if em != nil {
				em.Emit(kqml.ProvEvent{Kind: kqml.ProvFailover, Agent: a.cfg.Name,
					Failover: &kqml.FailoverDecision{Class: plan.class, Lost: matches[i].Name, CoveredBy: replica.Name, Note: e}})
			}
			continue
		}
		if em != nil {
			em.Emit(kqml.ProvEvent{Kind: kqml.ProvFailover, Agent: a.cfg.Name,
				Failover: &kqml.FailoverDecision{Class: plan.class, Lost: matches[i].Name, Note: e}})
		}
		lost = append(lost, fetchFailure{Agent: matches[i].Name, Err: e})
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].Agent < lost[j].Agent })
	return out, lost
}

// coveringReplica returns a succeeded advertisement that subsumes the
// failed one for the plan's class — it exposes every column the failed
// advertisement advertised AND declares a data region covering every region
// the failed advertisement declared — or nil. Under the community's
// advertised semantics a covering replica makes the two redundant — losing
// the failed fetch loses no declared data, because the replica's rows are
// already in the merge set and MergeFragments deduplicates the union.
func (p *fetchPlan) coveringReplica(failed *ontology.Advertisement, ok []*ontology.Advertisement) *ontology.Advertisement {
	cols := failed.AdvertisedColumns(p.onto, p.class, p.ont)
	if cols == nil {
		return nil
	}
	want := make([]string, 0, len(cols))
	for c := range cols {
		want = append(want, c)
	}
	for _, ad := range ok {
		if ad.CoversColumns(p.onto, p.class, want, p.ont) && p.constraintsCovered(failed, ad) {
			return ad
		}
	}
	return nil
}

// constraintsCovered reports whether every data region the failed
// advertisement declares for the plan's class is covered by some region the
// replica declares. Two unconstrained advertisements over the same class
// both claim all instances and so cover each other; a fragment constrained
// to a range is only covered by a replica whose range subsumes it.
func (p *fetchPlan) constraintsCovered(failed, replica *ontology.Advertisement) bool {
	for _, f := range p.servingFragments(failed) {
		covered := false
		for _, g := range p.servingFragments(replica) {
			if g.Constraints.Covers(f.Constraints) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// servingFragments returns the advertisement's fragments that can answer
// queries over the plan's class — directly or through a served subclass.
func (p *fetchPlan) servingFragments(ad *ontology.Advertisement) []*ontology.Fragment {
	return servingFragments(ad, p.onto, p.class, p.ont)
}

// servingFragments returns an advertisement's fragments that can answer
// queries over a class — directly or through a served subclass. Shared by
// the failover coverage check and the planner (aggregate-disjointness and
// selectivity estimates).
func servingFragments(ad *ontology.Advertisement, onto, class string, ont *ontology.Ontology) []*ontology.Fragment {
	var out []*ontology.Fragment
	for i := range ad.Content {
		f := &ad.Content[i]
		if !strings.EqualFold(f.Ontology, onto) {
			continue
		}
		for _, served := range f.Classes {
			if strings.EqualFold(served, class) || (ont != nil && ont.IsSubclassOf(served, class)) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// gather runs fetch for match indexes 0..n-1 on one bounded worker pool:
// min(MaxFanout, n) workers (MaxFanout 0 means defaultMaxFanout) claim
// indexes in broker match order, so MaxFanout = 1 is the serial gather.
// An index claimed after ctx ends is skipped, not fetched, and reports
// ctx's error. It returns each index's error, nil on success.
func (a *Agent) gather(ctx context.Context, n int, fetch func(i int) error) []error {
	fanout := a.cfg.MaxFanout
	if fanout <= 0 {
		fanout = defaultMaxFanout
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(fanout, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := ctx.Err(); err != nil {
					mFetchErrors.Inc()
					errs[i] = err
					continue
				}
				errs[i] = fetch(i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// fetch sends one fragment query to one resource: the one fetch call
// under both the gather and the partial-aggregate push. It counts the
// fetch, records an mrq.fetch span on traced runs so trace trees show the
// scatter's shape, feeds the planner's stats, reports the fetch as a
// decision, and folds the resource's own decisions into this run's. A
// resource that rejects a pushed rewrite — typically a vertical fragment
// whose advertisement overstates its columns — is asked for its whole
// fragment instead, and fallback reports that the reply is that raw
// fragment. bytes is the reply's content size.
func (a *Agent) fetch(ctx context.Context, class, sql string, pushed bool, ad *ontology.Advertisement) (sr *kqml.SQLResult, bytes int64, fallback bool, err error) {
	traceID := telemetry.TraceIDFrom(ctx)
	mFanoutInflight.Add(1)
	mFetchTotal.Inc()
	start := time.Now()
	defer func() {
		mFanoutInflight.Add(-1)
		if err != nil {
			mFetchErrors.Inc()
		}
		if traceID != "" {
			a.recordSpan(traceID, telemetry.OpMRQFetch, start, &err)
		}
	}()
	reply, err := a.ask(ctx, ad, sql)
	if err == nil && pushed && reply.Performative != kqml.Tell {
		mPushdownFallbacks.Inc()
		fallback = true
		reply, err = a.ask(ctx, ad, "SELECT * FROM "+class)
	}
	if err == nil {
		bytes = int64(len(reply.Content))
	}
	latency := time.Since(start)
	a.plannerStats().Observe(ad.Name, class, latency, bytes, err != nil)
	if em := provenance.For(ctx); em != nil {
		fr := &kqml.FetchReport{
			Resource:      ad.Name,
			Class:         class,
			SQL:           sql,
			Pushed:        pushed && !fallback,
			Fallback:      fallback,
			Bytes:         bytes,
			LatencyMicros: latency.Microseconds(),
		}
		if err != nil {
			fr.Err = err.Error()
		} else if reply.Performative != kqml.Tell {
			fr.Err = kqml.ReasonOf(reply)
		}
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvFetch, Agent: a.cfg.Name, Fetch: fr})
	}
	if err != nil {
		return nil, 0, fallback, err
	}
	provenance.CollectReply(ctx, reply)
	if reply.Performative != kqml.Tell {
		return nil, 0, fallback, fmt.Errorf("%s", kqml.ReasonOf(reply))
	}
	sr = &kqml.SQLResult{}
	if err := reply.DecodeContent(sr); err != nil {
		return nil, 0, fallback, err
	}
	mFetchBytes.Add(bytes)
	return sr, bytes, fallback, nil
}

func (a *Agent) ask(ctx context.Context, ad *ontology.Advertisement, sql string) (*kqml.Message, error) {
	msg := kqml.New(kqml.AskAll, a.cfg.Name, &kqml.SQLQuery{SQL: sql})
	msg.Language = ontology.LangSQL2
	msg.Receiver = ad.Name
	return a.Call(ctx, ad.Address, msg)
}
