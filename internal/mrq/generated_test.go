package mrq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/stats"
	"infosleuth/internal/transport"
)

// The generated oracle: seeded communities whose two classes are split
// over resources in the Section 5.1 shapes — one source, horizontal
// fragments over disjoint or overlapping regions of a, vertical fragments
// sharing the key — queried by every MRQ configuration and checked against
// one unfragmented table.

// genLeg is one MRQ configuration every generated query runs through.
type genLeg struct {
	name    string
	planner bool
	fanout  int
	push    bool
}

var genLegs = []genLeg{
	{"planned", true, 0, true},
	{"planned-serial", true, 1, true},
	{"unplanned", false, 0, true},
	{"unplanned-serial", false, 1, true},
	{"planned-nopush", true, 0, false},
}

// genDomain bounds column a: horizontal regions tile [0, genDomain), and
// generated constraints on a stay inside it, so the broker always has a
// resource to offer for every class a query names.
const genDomain = 100

// genRows draws one class's table. Keys come from a space both classes
// share, so key joins have answers; b and d have few values, so equality
// joins and GROUP BY have several rows per value; c is fractional, some of
// it small enough to render in exponent form.
func genRows(r *rand.Rand) []relational.Row {
	perm := r.Perm(30)
	n := 6 + r.Intn(12)
	rows := make([]relational.Row, n)
	for i := range rows {
		c := float64(r.Intn(40)) / 8
		if r.Intn(5) == 0 {
			c = float64(1+r.Intn(9)) * 1e-6
		}
		rows[i] = relational.Row{
			relational.Str(fmt.Sprintf("k%02d", perm[i])),
			relational.Num(float64(r.Intn(genDomain))),
			relational.Num(float64(r.Intn(6))),
			relational.Num(c),
			relational.Num(float64(r.Intn(3))),
		}
	}
	return rows
}

// genSource is one resource to start: its rows, the columns it holds
// (nil for all), and the region of a it advertises ("" for none).
type genSource struct {
	rows   []relational.Row
	cols   []string
	region string
}

// genLayout splits one class's rows over resources and describes the
// split for failure messages. A keyless class has no key to join vertical
// fragments on, so it draws a horizontal layout in their place.
func genLayout(r *rand.Rand, class string, rows []relational.Row, keyless bool) ([]genSource, string) {
	shape := r.Intn(4)
	if keyless && shape == 1 {
		shape = 2
	}
	switch shape {
	case 0:
		return []genSource{{rows: rows}}, "one source"
	case 1:
		cols := [][]string{{"id", "a", "b"}, {"id", "c", "d"}}
		if r.Intn(2) == 0 {
			cols = [][]string{{"id", "a"}, {"id", "b", "c"}, {"id", "d"}}
		}
		var srcs []genSource
		for _, cs := range cols {
			srcs = append(srcs, genSource{rows: rows, cols: cs})
		}
		return srcs, fmt.Sprintf("vertical %v", cols)
	default:
		// Horizontal: cut [0, genDomain) into 2-4 regions of a; with
		// probability 1/2 add a replica over two adjacent regions.
		cuts := []int{0}
		for _, c := range r.Perm(genDomain - 1)[:1+r.Intn(3)] {
			cuts = append(cuts, c+1)
		}
		sort.Ints(cuts)
		cuts = append(cuts, genDomain)
		var srcs []genSource
		for i := 0; i+1 < len(cuts); i++ {
			srcs = append(srcs, genRegion(class, rows, cuts[i], cuts[i+1]))
		}
		desc := fmt.Sprintf("horizontal at %v", cuts)
		if r.Intn(2) == 0 {
			i := r.Intn(len(cuts) - 2)
			srcs = append(srcs, genRegion(class, rows, cuts[i], cuts[i+2]))
			desc += fmt.Sprintf(", replica over [%d, %d)", cuts[i], cuts[i+2])
		}
		return srcs, desc
	}
}

func genRegion(class string, rows []relational.Row, lo, hi int) genSource {
	src := genSource{region: fmt.Sprintf("%s.a between %d and %d", class, lo, hi-1)}
	for _, row := range rows {
		if a := row[1].Number(); a >= float64(lo) && a < float64(hi) {
			src.rows = append(src.rows, row)
		}
	}
	return src
}

// genQueries draws the statements one scenario asks: selections (range,
// IN, equality), projections, a qualified two-class join, and aggregates
// with and without GROUP BY.
func genQueries(r *rand.Rand, tables map[string][]relational.Row) []string {
	one := func() string { return []string{"C1", "C2"}[r.Intn(2)] }
	num := func(class string, col int) string {
		rows := tables[class]
		return rows[r.Intn(len(rows))][col].String()
	}
	where := func(class, q string) string {
		switch r.Intn(4) {
		case 0:
			lo := r.Intn(genDomain)
			return fmt.Sprintf("%s WHERE %s.a BETWEEN %d AND %d", q, class, lo, lo+r.Intn(genDomain-lo))
		case 1:
			return fmt.Sprintf("%s WHERE %s.a >= %d AND %s.b <> %s", q, class, r.Intn(genDomain), class, num(class, 2))
		case 2:
			return fmt.Sprintf("%s WHERE %s.c IN (%s, %s, %s)", q, class, num(class, 3), num(class, 3), num(class, 3))
		default:
			return fmt.Sprintf("%s WHERE %s.d = %s", q, class, num(class, 4))
		}
	}
	var out []string
	c := one()
	out = append(out, where(c, "SELECT id, a, c FROM "+c))
	c = one()
	out = append(out, fmt.Sprintf("SELECT * FROM %s WHERE id IN ('%s', '%s', 'k99') ORDER BY id",
		c, tables[c][0][0].Text(), tables[c][len(tables[c])-1][0].Text()))
	c = one()
	proj := [][]string{{"b", "d"}, {"id", "c"}, {"a", "b", "c", "d"}}[r.Intn(3)]
	out = append(out, fmt.Sprintf("SELECT %s FROM %s ORDER BY %s", strings.Join(proj, ", "), c, proj[r.Intn(len(proj))]))
	join := "SELECT C1.id, C2.id, C2.a FROM C1, C2 WHERE C1.b = C2.b"
	if r.Intn(2) == 0 {
		join = "SELECT C1.id, C1.c, C2.d FROM C1, C2 WHERE C1.id = C2.id"
	}
	if r.Intn(2) == 0 {
		join += fmt.Sprintf(" AND C2.a < %d", 1+r.Intn(genDomain-1))
	}
	out = append(out, join)
	c = one()
	out = append(out, where(c, "SELECT COUNT(*), SUM(a), AVG(c), MIN(b), MAX(c) FROM "+c))
	c = one()
	q := "SELECT d, COUNT(*), SUM(c), AVG(a), MIN(a), MAX(b) FROM " + c
	if r.Intn(2) == 0 {
		q = where(c, q)
	}
	q += " GROUP BY d"
	if r.Intn(2) == 0 {
		q += " ORDER BY d DESC"
	}
	return append(out, q)
}

// TestGeneratedQueriesMatchOneTable runs 200 seeded scenarios, then 40
// more whose classes have no key, so the MRQ's merge can tell replica rows
// apart only by their values. Each starts a broker, the resources of two
// generated class layouts and one MRQ per leg over transport.InProc, then
// asks every generated query through every leg and compares the answer
// with sqlparse.Execute over one database holding the unfragmented tables.
func TestGeneratedQueriesMatchOneTable(t *testing.T) {
	scenarios, keyless := 200, 40
	if testing.Short() {
		scenarios, keyless = 40, 8
	}
	plans, fetches := SnapshotPlanStats(), SnapshotFetchStats()
	for seed := int64(1); seed <= int64(scenarios+keyless); seed++ {
		runGeneratedScenario(t, seed, seed > int64(scenarios))
		if t.Failed() {
			return
		}
	}
	// The planned legs must have taken each rewrite somewhere, or the
	// scenarios no longer test what they exist for.
	p, f := SnapshotPlanStats(), SnapshotFetchStats()
	t.Logf("%d semi-joins, %d aggregate pushdowns, %d plan fallbacks, %d fetches",
		p.SemiJoins-plans.SemiJoins, p.AggPushdowns-plans.AggPushdowns, p.Fallbacks-plans.Fallbacks, f.Fetches-fetches.Fetches)
	if p.SemiJoins == plans.SemiJoins || p.AggPushdowns == plans.AggPushdowns {
		t.Errorf("no semi-join or no aggregate pushdown in %d scenarios", scenarios)
	}
}

func runGeneratedScenario(t *testing.T, seed int64, keyless bool) {
	r := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	tr := transport.NewInProc()
	ont := ontology.Generic()
	if keyless {
		ont = ontology.New("generic")
		for _, class := range []string{"C1", "C2"} {
			ont.MustAddClass(ontology.Class{Name: class, Slots: []string{"id", "a", "b", "c", "d"}})
		}
	}
	world := ontology.NewWorld(ont)
	b, err := broker.New(broker.Config{Name: fmt.Sprintf("Broker-g%d", seed), Transport: tr, World: world})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	oracle := relational.NewDatabase()
	tables := map[string][]relational.Row{}
	var layout []string
	if keyless {
		layout = append(layout, "keyless")
	}
	for _, class := range []string{"C1", "C2"} {
		rows := genRows(r)
		tables[class] = rows
		tbl := oracle.MustCreate(relational.GenericSchema(class))
		for _, row := range rows {
			tbl.MustInsert(row)
		}
		srcs, desc := genLayout(r, class, rows, keyless)
		layout = append(layout, class+": "+desc)
		for i, src := range srcs {
			ra := startGenSource(t, tr, b.Addr(), fmt.Sprintf("g%d-%s-%d", seed, class, i), class, src)
			defer ra.Stop()
		}
	}

	agents := make([]*Agent, len(genLegs))
	for i, leg := range genLegs {
		m, err := New(Config{
			Name: fmt.Sprintf("MRQ-g%d-%s", seed, leg.name), Transport: tr, KnownBrokers: []string{b.Addr()},
			World: world, Ontology: "generic",
			Planner: leg.planner, MaxFanout: leg.fanout, PushConstraints: leg.push,
			PlannerStats: stats.NewQueryStats(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		agents[i] = m
	}

	for _, sql := range genQueries(r, tables) {
		stmt := sqlparse.MustParse(sql)
		want, err := sqlparse.Execute(oracle, stmt)
		if err != nil {
			t.Fatalf("seed %d: oracle %q: %v", seed, sql, err)
		}
		for i, m := range agents {
			got, status, err := m.RunWithStatus(ctx, sql)
			if err == nil && status.Partial {
				err = fmt.Errorf("partial answer: %+v", status.Degraded)
			}
			if err == nil {
				err = sameAnswer(got, want, stmt)
			}
			if err != nil {
				t.Errorf("seed %d, leg %s, layout %s\n%s\n%v\ngot:\n%v\nwant:\n%s",
					seed, genLegs[i].name, strings.Join(layout, "; "), sql, err, got, want)
				return
			}
		}
	}
}

func startGenSource(t *testing.T, tr transport.Transport, brokerAddr, name, class string, src genSource) *resource.Agent {
	t.Helper()
	db, frag := genSourceDB(class, src)
	ra, err := resource.New(resource.Config{
		Name: name, Transport: tr, KnownBrokers: []string{brokerAddr},
		DB: db, Fragment: frag,
		Capabilities: []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Advertise(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ra
}

// genSourceDB builds a source's database and the fragment it advertises.
func genSourceDB(class string, src genSource) (*relational.Database, ontology.Fragment) {
	schema := relational.GenericSchema(class)
	frag := ontology.Fragment{Ontology: "generic", Classes: []string{class}}
	if src.cols != nil {
		var cols []relational.Column
		for _, c := range schema.Columns {
			for _, want := range src.cols {
				if c.Name == want {
					cols = append(cols, c)
				}
			}
		}
		schema.Columns = cols
		frag.Slots = map[string][]string{class: src.cols}
	}
	if src.region != "" {
		frag.Constraints = constraint.MustParse(src.region)
	}
	db := relational.NewDatabase()
	tbl := db.MustCreate(schema)
	full := relational.GenericSchema(class)
	for _, row := range src.rows {
		var out relational.Row
		for _, c := range schema.Columns {
			out = append(out, row[full.ColIndex(c.Name)])
		}
		tbl.MustInsert(out)
	}
	return db, frag
}

// sameAnswer compares an MRQ answer with the oracle's. The columns must
// match. Under ORDER BY the rows must come in the same order, except that
// rows tied on the sort column may come in any order among themselves;
// without ORDER BY the rows are compared as multisets.
//
// Numbers compare within a relative 1e-9, not exactly: an aggregate
// pushed to disjoint fragments merges AVG from partial SUMs and COUNTs and
// SUM from partial SUMs, whose float additions run in another order than
// the one-table scan's, so the last bits of a fractional sum can differ.
// Every other value passes through the MRQ untouched and compares exactly
// within that bound.
func sameAnswer(got, want *sqlparse.Result, stmt *sqlparse.Select) error {
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	if stmt.OrderBy == "" {
		return sameMultiset(got.Rows, want.Rows)
	}
	ci := want.ColIndex(stmt.OrderBy)
	if ci < 0 {
		return fmt.Errorf("ORDER BY column %s not in the answer", stmt.OrderBy)
	}
	for start := 0; start < len(want.Rows); {
		end := start + 1
		for end < len(want.Rows) && want.Rows[end][ci].Equal(want.Rows[start][ci]) {
			end++
		}
		for i := start; i < end; i++ {
			if !closeValue(got.Rows[i][ci], want.Rows[start][ci]) {
				return fmt.Errorf("row %d sorts on %s = %s, want %s", i, stmt.OrderBy, got.Rows[i][ci], want.Rows[start][ci])
			}
		}
		if err := sameMultiset(got.Rows[start:end], want.Rows[start:end]); err != nil {
			return fmt.Errorf("rows %d..%d: %w", start, end-1, err)
		}
		start = end
	}
	return nil
}

// sameMultiset sorts copies of both row lists by exact value order and
// compares them pairwise within the float bound.
func sameMultiset(got, want []relational.Row) error {
	sorted := func(rows []relational.Row) []relational.Row {
		out := append([]relational.Row(nil), rows...)
		sort.Slice(out, func(i, j int) bool {
			for k := range out[i] {
				if c := out[i][k].Compare(out[j][k]); c != 0 {
					return c < 0
				}
			}
			return false
		})
		return out
	}
	g, w := sorted(got), sorted(want)
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %v has %d values, want %d", g[i], len(g[i]), len(w[i]))
		}
		for k := range w[i] {
			if !closeValue(g[i][k], w[i][k]) {
				return fmt.Errorf("row %v, want %v", g[i], w[i])
			}
		}
	}
	return nil
}

func closeValue(got, want constraint.Value) bool {
	if got.Kind() != constraint.KindNumber || want.Kind() != constraint.KindNumber {
		return got.Equal(want)
	}
	g, w := got.Number(), want.Number()
	return g == w || math.Abs(g-w) <= 1e-9*math.Max(math.Abs(g), math.Abs(w))
}
