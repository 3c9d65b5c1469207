package mrq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/stats"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
	"infosleuth/internal/transport"
)

// planRig extends the integration rig with a second, planning MRQ so every
// query can be run both ways and compared.
type planRig struct {
	*rig
	planned *Agent
}

func newPlanRig(t *testing.T, maxKeys int) *planRig {
	t.Helper()
	r := newRig(t)
	m, err := New(Config{
		Name: "MRQ planner", Transport: r.tr, KnownBrokers: []string{r.broker.Addr()},
		World: ontology.NewWorld(ontology.Generic()), Ontology: "generic",
		PushConstraints: true, Planner: true, SemiJoinMaxKeys: maxKeys,
		PlannerStats: stats.NewQueryStats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Stop() })
	return &planRig{rig: r, planned: m}
}

// addTableResource starts a resource serving one class with the given rows
// (id, a, b, c, d), optional advertised constraints and capabilities.
func (r *planRig) addTableResource(t *testing.T, name, class string, rows []relational.Row, constraints string, caps []string) {
	t.Helper()
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.GenericSchema(class))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		tbl.MustInsert(row)
	}
	frag := ontology.Fragment{Ontology: "generic", Classes: []string{class}}
	if constraints != "" {
		frag.Constraints = mustParse(t, constraints)
	}
	ra, err := resource.New(resource.Config{
		Name: name, Transport: r.tr, KnownBrokers: []string{r.broker.Addr()},
		DB: db, Fragment: frag, Capabilities: caps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Stop() })
	if _, err := ra.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func genRow(id string, a, b, c, d float64) relational.Row {
	return relational.Row{
		relational.Str(id),
		relational.Num(a), relational.Num(b), relational.Num(c), relational.Num(d),
	}
}

// bothWays runs one query through the plain and the planning MRQ and
// requires byte-identical answers.
func (r *planRig) bothWays(t *testing.T, sql string) string {
	t.Helper()
	plain, err := r.mrq.Run(context.Background(), sql)
	if err != nil {
		t.Fatalf("unplanned run: %v", err)
	}
	planned, err := r.planned.Run(context.Background(), sql)
	if err != nil {
		t.Fatalf("planned run: %v", err)
	}
	if plain.String() != planned.String() {
		t.Fatalf("planned answer differs from unplanned:\nunplanned:\n%s\nplanned:\n%s", plain.String(), planned.String())
	}
	return planned.String()
}

func TestPlannedJoinAppliesSemiJoin(t *testing.T) {
	r := newPlanRig(t, 0)
	// C1 is the small build side: 2 rows whose b values hit only 2 of
	// C2's 8 rows. Row estimates (advertised automatically from table
	// sizes) pick the build side.
	r.addTableResource(t, "RA-C1", "C1", []relational.Row{
		genRow("k1", 1, 10, 0, 0),
		genRow("k2", 2, 30, 0, 0),
	}, "", nil)
	var c2 []relational.Row
	for i := 0; i < 8; i++ {
		c2 = append(c2, genRow(fmt.Sprintf("p%d", i), float64(i*100), float64(i*10), 0, 0))
	}
	r.addTableResource(t, "RA-C2", "C2", c2, "", nil)

	before := SnapshotPlanStats()
	out := r.bothWays(t, "SELECT C1.id, C2.id, C2.a FROM C1, C2 WHERE C1.b = C2.b ORDER BY id")
	after := SnapshotPlanStats()
	if after.SemiJoins != before.SemiJoins+1 {
		t.Errorf("semi-join rewrites = %d, want %d", after.SemiJoins, before.SemiJoins+1)
	}
	if after.Fallbacks != before.Fallbacks {
		t.Errorf("plan fallbacks moved: %d -> %d", before.Fallbacks, after.Fallbacks)
	}
	if !strings.Contains(out, "k1") || !strings.Contains(out, "k2") {
		t.Errorf("join output missing build rows:\n%s", out)
	}
}

func TestSemiJoinKeyCapFallsBack(t *testing.T) {
	r := newPlanRig(t, 1) // cap of one key: any 2-key build side overflows
	r.addTableResource(t, "RA-C1", "C1", []relational.Row{
		genRow("k1", 1, 10, 0, 0),
		genRow("k2", 2, 30, 0, 0),
	}, "", nil)
	var c2 []relational.Row
	for i := 0; i < 6; i++ {
		c2 = append(c2, genRow(fmt.Sprintf("p%d", i), float64(i), float64(i*10), 0, 0))
	}
	r.addTableResource(t, "RA-C2", "C2", c2, "", nil)

	before := SnapshotPlanStats()
	r.bothWays(t, "SELECT C1.id, C2.id FROM C1, C2 WHERE C1.b = C2.b ORDER BY id")
	after := SnapshotPlanStats()
	if after.KeyOverflows != before.KeyOverflows+1 {
		t.Errorf("key overflows = %d, want %d", after.KeyOverflows, before.KeyOverflows+1)
	}
	if after.Fallbacks != before.Fallbacks+1 {
		t.Errorf("fallbacks = %d, want %d", after.Fallbacks, before.Fallbacks+1)
	}
	if after.SemiJoins != before.SemiJoins {
		t.Errorf("overflowed semi-join still counted as a rewrite")
	}
}

func TestPlannedAggregatePushesPartials(t *testing.T) {
	r := newPlanRig(t, 0)
	caps := []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation}
	r.addTableResource(t, "RA-lo", "C2", []relational.Row{
		genRow("a1", 10, 1, 5, 0),
		genRow("a2", 20, 2, 7, 0),
	}, "C2.a between 0 and 99", caps)
	r.addTableResource(t, "RA-hi", "C2", []relational.Row{
		genRow("b1", 100, 3, 11, 0),
		genRow("b2", 200, 4, 13, 0),
		genRow("b3", 300, 5, 17, 0),
	}, "C2.a between 100 and 999", caps)

	before := SnapshotPlanStats()
	out := r.bothWays(t, "SELECT COUNT(*), SUM(a), MIN(a), MAX(a), AVG(c) FROM C2")
	after := SnapshotPlanStats()
	if after.AggPushdowns != before.AggPushdowns+1 {
		t.Errorf("aggregate pushdowns = %d, want %d", after.AggPushdowns, before.AggPushdowns+1)
	}
	if !strings.Contains(out, "630") { // SUM(a) = 10+20+100+200+300
		t.Errorf("aggregate output missing SUM(a)=630:\n%s", out)
	}
}

func TestAggregatePlanRejectsPossiblyOverlappingFragments(t *testing.T) {
	r := newPlanRig(t, 0)
	caps := []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation}
	// No advertised constraints: the two fragments may overlap, so the
	// partial counts would double-count and the planner must fall back to
	// the full-fragment path (which deduplicates).
	shared := genRow("dup", 50, 1, 2, 3)
	r.addTableResource(t, "RA-1", "C2", []relational.Row{shared, genRow("x1", 1, 0, 0, 0)}, "", caps)
	r.addTableResource(t, "RA-2", "C2", []relational.Row{shared, genRow("x2", 2, 0, 0, 0)}, "", caps)

	before := SnapshotPlanStats()
	out := r.bothWays(t, "SELECT COUNT(*), SUM(a) FROM C2")
	after := SnapshotPlanStats()
	if after.AggPushdowns != before.AggPushdowns {
		t.Errorf("overlapping fragments still pushed aggregates")
	}
	// 3 distinct rows after dedup: dup, x1, x2.
	if !strings.Contains(out, "3") || !strings.Contains(out, "53") {
		t.Errorf("fallback aggregate wrong (want COUNT 3, SUM 53):\n%s", out)
	}
}

func TestPlannedAggregateFallsBackPerResource(t *testing.T) {
	r := newPlanRig(t, 0)
	// One resource can aggregate, one cannot (default capabilities). The
	// class-level plan is rejected, but the answer still matches.
	caps := []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation}
	r.addTableResource(t, "RA-agg", "C2", []relational.Row{
		genRow("a1", 10, 0, 0, 0),
	}, "C2.a between 0 and 99", caps)
	r.addTableResource(t, "RA-plain", "C2", []relational.Row{
		genRow("b1", 100, 0, 0, 0),
	}, "C2.a between 100 and 999", nil)

	before := SnapshotPlanStats()
	out := r.bothWays(t, "SELECT COUNT(*), SUM(a) FROM C2")
	after := SnapshotPlanStats()
	if after.AggPushdowns != before.AggPushdowns {
		t.Errorf("mixed-capability match set still pushed aggregates")
	}
	if !strings.Contains(out, "110") {
		t.Errorf("fallback aggregate wrong (want SUM 110):\n%s", out)
	}
}

func TestPlanReportsWithoutFetching(t *testing.T) {
	r := newPlanRig(t, 0)
	r.addTableResource(t, "RA-C1", "C1", []relational.Row{genRow("k1", 1, 10, 0, 0)}, "", nil)
	var c2 []relational.Row
	for i := 0; i < 4; i++ {
		c2 = append(c2, genRow(fmt.Sprintf("p%d", i), float64(i), float64(i*10), 0, 0))
	}
	r.addTableResource(t, "RA-C2", "C2", c2, "", nil)

	rec := recorder.New()
	prev := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prev)

	traceID := telemetry.NewTraceID()
	ctx := telemetry.WithTraceID(context.Background(), traceID)
	before := SnapshotFetchStats()
	if err := r.planned.Plan(ctx, "SELECT C1.id, C2.id FROM C1, C2 WHERE C1.b = C2.b"); err != nil {
		t.Fatal(err)
	}
	after := SnapshotFetchStats()
	if after.Fetches != before.Fetches {
		t.Errorf("Plan fetched fragments: %d -> %d", before.Fetches, after.Fetches)
	}
	ex, ok := rec.Explain(traceID)
	if !ok {
		t.Fatal("no explain report recorded")
	}
	if len(ex.Plans) == 0 {
		t.Fatal("explain report carries no plan decisions")
	}
	var sawSemiJoin bool
	for _, e := range ex.Plans {
		if e.Plan != nil && e.Plan.SemiJoin {
			sawSemiJoin = true
			if e.Plan.Build != "C1" || e.Plan.Probe != "C2" {
				t.Errorf("semi-join sides = build %s probe %s, want C1/C2", e.Plan.Build, e.Plan.Probe)
			}
		}
	}
	if !sawSemiJoin {
		t.Errorf("plan decisions carry no semi-join intent: %+v", ex.Plans)
	}
}

// TestFetchesFeedPlannerStats: the stats a planner ranks against are the
// stats its own fetches feed — an injected source, not the process-wide
// aggregator behind its back.
func TestFetchesFeedPlannerStats(t *testing.T) {
	r := newPlanRig(t, 0)
	r.addTableResource(t, "RA-feed", "C2", []relational.Row{genRow("k1", 1, 2, 3, 4)}, "", nil)
	global, _ := stats.Queries.Peek("RA-feed", "C2")
	if _, err := r.planned.Run(context.Background(), "SELECT id FROM C2"); err != nil {
		t.Fatal(err)
	}
	if pcs, ok := r.planned.cfg.PlannerStats.Peek("RA-feed", "C2"); !ok || pcs.Count != 1 {
		t.Errorf("injected planner stats for RA-feed/C2 = %+v (found %v), want one fetch", pcs, ok)
	}
	if after, _ := stats.Queries.Peek("RA-feed", "C2"); after.Count != global.Count {
		t.Errorf("process-wide stats for RA-feed/C2 moved %d -> %d; the fetch belongs to the injected source", global.Count, after.Count)
	}
}

// TestPushedExponentConstraintNeedsNoFallback: a constraint whose literal
// renders in exponent form (0.00001 -> 1e-05) is pushed to every fragment
// and read back by the resources, with no SELECT * refetch and the same
// rows as an MRQ that pushes nothing.
func TestPushedExponentConstraintNeedsNoFallback(t *testing.T) {
	r := newPlanRig(t, 0)
	r.addTableResource(t, "RA-exp-1", "C2", []relational.Row{
		genRow("e1", 0.000001, 0, 0, 0), genRow("e2", 0.5, 0, 0, 0),
	}, "", nil)
	r.addTableResource(t, "RA-exp-2", "C2", []relational.Row{
		genRow("e3", 0.00002, 0, 0, 0), genRow("e4", 0, 0, 0, 0),
	}, "", nil)
	noPush := r.addMRQ(t, "MRQ-nopush", 0, false)
	const sql = "SELECT id, a FROM C2 WHERE a > 0.00001 ORDER BY id"
	want, err := noPush.Run(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 2 {
		t.Fatalf("unpushed answer has %d rows, want e2 and e3:\n%s", want.Len(), want)
	}
	for _, m := range []*Agent{r.mrq, r.planned} {
		before := SnapshotFetchStats()
		got, err := m.Run(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if fb := SnapshotFetchStats().Fallbacks - before.Fallbacks; fb != 0 {
			t.Errorf("%s: %d pushdown fallbacks, want 0", m.cfg.Name, fb)
		}
		if got.String() != want.String() {
			t.Errorf("%s answered\n%s\nwant\n%s", m.cfg.Name, got, want)
		}
	}
}

func TestOrderMatchesPrefersObservedCheaperPeer(t *testing.T) {
	qs := stats.NewQueryStats()
	a := newBareAgent(t, qs)
	ads := []*ontology.Advertisement{
		benchAd("slow"), benchAd("fast"),
	}
	for i := 0; i < 5; i++ {
		qs.Observe("slow", "C2", 80_000_000, 1000, false) // 80ms
		qs.Observe("fast", "C2", 2_000_000, 1000, false)  // 2ms
	}
	ordered, costs := a.orderMatches("C2", nil, ads)
	if costs == nil {
		t.Fatal("observed stats produced no costs")
	}
	if ordered[0].Name != "fast" {
		t.Errorf("fan-out order = [%s %s], want fast first", ordered[0].Name, ordered[1].Name)
	}
	if costs[0] >= costs[1] {
		t.Errorf("costs not ascending: %v", costs)
	}
}

func TestOrderMatchesDeterministic(t *testing.T) {
	qs := stats.NewQueryStats()
	a := newBareAgent(t, qs)
	ads := []*ontology.Advertisement{benchAd("r1"), benchAd("r2"), benchAd("r3")}
	qs.Observe("r2", "C2", 1_000_000, 100, false)
	first, firstCosts := a.orderMatches("C2", nil, ads)
	for i := 0; i < 10; i++ {
		again, againCosts := a.orderMatches("C2", nil, ads)
		for j := range first {
			if first[j].Name != again[j].Name || firstCosts[j] != againCosts[j] {
				t.Fatalf("run %d reordered: %v vs %v", i, firstCosts, againCosts)
			}
		}
	}
}

// TestOrderMatchesNoStatsDoesNotAllocate pins the planner's no-signal fast
// path: with no stats, no advertised response times and no breakers, the
// broker's order is returned as-is with zero allocations.
func TestOrderMatchesNoStatsDoesNotAllocate(t *testing.T) {
	a := newBareAgent(t, stats.NewQueryStats())
	ads := []*ontology.Advertisement{benchAd("r1"), benchAd("r2"), benchAd("r3")}
	allocs := testing.AllocsPerRun(100, func() {
		ordered, costs := a.orderMatches("C2", nil, ads)
		if costs != nil || len(ordered) != 3 {
			t.Fatal("no-stats path computed costs")
		}
	})
	if allocs != 0 {
		t.Errorf("no-stats orderMatches allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkPlanOrderNoStats(b *testing.B) {
	a, err := New(Config{
		Name: "bench", Transport: transport.NewInProc(), KnownBrokers: []string{"inproc://none"},
		World: ontology.NewWorld(ontology.Generic()), Ontology: "generic",
		Planner: true, PlannerStats: stats.NewQueryStats(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ads := []*ontology.Advertisement{benchAd("r1"), benchAd("r2"), benchAd("r3")}
	a.orderMatches("C2", nil, ads) // warm any lazy runtime state before counting
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.orderMatches("C2", nil, ads)
	}
}

func newBareAgent(t *testing.T, qs *stats.QueryStats) *Agent {
	t.Helper()
	a, err := New(Config{
		Name: "plan-test", Transport: transport.NewInProc(), KnownBrokers: []string{"inproc://none"},
		World: ontology.NewWorld(ontology.Generic()), Ontology: "generic",
		Planner: true, PlannerStats: qs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func benchAd(name string) *ontology.Advertisement {
	return &ontology.Advertisement{
		Name: name, Address: "inproc://" + name, Type: ontology.TypeResource,
		Content: []ontology.Fragment{{Ontology: "generic", Classes: []string{"C2"}}},
	}
}
