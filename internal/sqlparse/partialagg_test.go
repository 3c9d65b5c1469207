package sqlparse

import (
	"slices"
	"strings"
	"testing"

	"infosleuth/internal/relational"
)

// aggDifferential is the partial-aggregate soundness harness: the same rows
// evaluated locally in one table must be byte-identical to per-fragment
// partials merged at the MRQ, for any split of the rows into fragments. It
// returns the merged result.
func aggDifferential(t *testing.T, schema relational.Schema, fragments [][]relational.Row, sql string) *Result {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, ok := PlanPartialAggregates(stmt)
	if !ok {
		t.Fatalf("PlanPartialAggregates rejected %q", sql)
	}

	// Local evaluation over the union of all fragments.
	full := relational.NewDatabase()
	ft := full.MustCreate(schema)
	for _, frag := range fragments {
		for _, r := range frag {
			ft.MustInsert(r)
		}
	}
	want, err := Execute(full, stmt)
	if err != nil {
		t.Fatal(err)
	}

	// Per-fragment partials, merged.
	fragSQL := plan.FragmentSQL(schema.Name, nil)
	partialStmt, err := Parse(fragSQL)
	if err != nil {
		t.Fatalf("fragment SQL %q does not parse: %v", fragSQL, err)
	}
	var partials []*Result
	for _, frag := range fragments {
		db := relational.NewDatabase()
		tbl := db.MustCreate(schema)
		for _, r := range frag {
			tbl.MustInsert(r)
		}
		pr, err := Execute(db, partialStmt)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, pr)
	}
	got, err := plan.Merge(partials)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.OrderBy != "" {
		if err := got.Sort(stmt.OrderBy, stmt.OrderDesc); err != nil {
			t.Fatal(err)
		}
	}
	if want.String() != got.String() {
		t.Errorf("merged partials differ from local evaluation for %q:\nlocal:\n%s\nmerged:\n%s",
			sql, want.String(), got.String())
	}
	return got
}

func aggSchema() relational.Schema {
	return relational.Schema{
		Name: "T",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "grp", Type: relational.TypeString},
			{Name: "v", Type: relational.TypeNumber},
			{Name: "w", Type: relational.TypeNumber},
		},
		Key: "id",
	}
}

func aggRow(id, grp string, v, w float64) relational.Row {
	return relational.Row{relational.Str(id), relational.Str(grp), relational.Num(v), relational.Num(w)}
}

func TestPartialAggDifferentialUngrouped(t *testing.T) {
	frags := [][]relational.Row{
		{aggRow("a", "x", 1, 10), aggRow("b", "y", 2, 20)},
		{aggRow("c", "x", 3, 30), aggRow("d", "z", 4, 40), aggRow("e", "y", 5, 50)},
	}
	aggDifferential(t, aggSchema(), frags,
		"SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(w) FROM T")
}

func TestPartialAggDifferentialGrouped(t *testing.T) {
	frags := [][]relational.Row{
		{aggRow("a", "x", 1, 10), aggRow("b", "y", 2, 20)},
		{aggRow("c", "x", 3, 30), aggRow("d", "z", 4, 40)},
		{aggRow("e", "y", 5, 50), aggRow("f", "x", 7, 70)},
	}
	aggDifferential(t, aggSchema(), frags,
		"SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(w), MAX(w) FROM T GROUP BY grp")
}

// TestGroupByValueOrder: groups come out in value order, numbers sorted
// numerically (9 before 10, not text order), from local evaluation and from
// merged partials alike.
func TestGroupByValueOrder(t *testing.T) {
	frags := [][]relational.Row{
		{aggRow("a", "x", 10, 1), aggRow("b", "y", 9, 2)},
		{aggRow("c", "x", 100, 3), aggRow("d", "y", 10, 4)},
	}
	got := aggDifferential(t, aggSchema(), frags, "SELECT v, COUNT(*), SUM(w) FROM T GROUP BY v")
	var order []float64
	for _, row := range got.Rows {
		order = append(order, row[0].Number())
	}
	if !slices.Equal(order, []float64{9, 10, 100}) {
		t.Errorf("group order = %v, want [9 10 100]", order)
	}
}

func TestPartialAggDifferentialAvgIsSumOverCount(t *testing.T) {
	// An AVG-only query still merges exactly: AVG decomposes into
	// SUM+COUNT partials, recombined as one division at the merge.
	frags := [][]relational.Row{
		{aggRow("a", "x", 1, 0)},
		{aggRow("b", "x", 2, 0), aggRow("c", "y", 4, 0)},
	}
	aggDifferential(t, aggSchema(), frags, "SELECT AVG(v) FROM T")
	aggDifferential(t, aggSchema(), frags, "SELECT grp, AVG(v) FROM T GROUP BY grp ORDER BY grp")
}

func TestPartialAggDifferentialCountColumn(t *testing.T) {
	// COUNT(col) counts tuples in this engine (no NULLs exist), so it
	// must merge identically to COUNT(*).
	frags := [][]relational.Row{
		{aggRow("a", "x", 1, 0), aggRow("b", "y", 2, 0)},
		{aggRow("c", "x", 3, 0)},
	}
	aggDifferential(t, aggSchema(), frags, "SELECT COUNT(v), COUNT(*) FROM T")
}

func TestPartialAggDifferentialEmptyFragments(t *testing.T) {
	// Fragments with no rows contribute zero-count placeholder partials
	// that the merge must skip, not fold in as zeros.
	frags := [][]relational.Row{
		{},
		{aggRow("a", "x", 5, 2), aggRow("b", "y", 7, 4)},
		{},
	}
	aggDifferential(t, aggSchema(), frags,
		"SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(w) FROM T")
	aggDifferential(t, aggSchema(), frags,
		"SELECT grp, COUNT(*), MIN(v) FROM T GROUP BY grp ORDER BY grp")
}

func TestPartialAggDifferentialAllEmpty(t *testing.T) {
	// No rows anywhere: the ungrouped merge must still produce the one
	// all-zero row local evaluation produces.
	frags := [][]relational.Row{{}, {}}
	aggDifferential(t, aggSchema(), frags, "SELECT COUNT(*), SUM(v), AVG(v) FROM T")
}

func TestPartialAggDifferentialStringMinMax(t *testing.T) {
	frags := [][]relational.Row{
		{aggRow("a", "pear", 1, 0), aggRow("b", "apple", 2, 0)},
		{aggRow("c", "quince", 3, 0)},
	}
	aggDifferential(t, aggSchema(), frags, "SELECT MIN(grp), MAX(grp), COUNT(*) FROM T")
}

func TestPlanPartialAggregatesRejections(t *testing.T) {
	// (UNION with aggregates is already rejected by the parser itself, so
	// it can never reach the planner.)
	for _, sql := range []string{
		"SELECT id FROM T", // no aggregates
		"SELECT COUNT(*) FROM T, U WHERE T.id = U.id", // multi-class
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if _, ok := PlanPartialAggregates(stmt); ok {
			t.Errorf("PlanPartialAggregates accepted %q", sql)
		}
	}
}

func TestPartialAggFragmentSQLShape(t *testing.T) {
	stmt, err := Parse("SELECT grp, AVG(v), COUNT(*) FROM T GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	plan, ok := PlanPartialAggregates(stmt)
	if !ok {
		t.Fatal("plan rejected")
	}
	sql := plan.FragmentSQL("T", nil)
	// AVG must be decomposed, never shipped: resources see SUM and COUNT.
	if strings.Contains(sql, "AVG") {
		t.Errorf("fragment SQL ships AVG: %q", sql)
	}
	for _, want := range []string{"COUNT(*)", "SUM(v)", "GROUP BY grp"} {
		if !strings.Contains(sql, want) {
			t.Errorf("fragment SQL %q missing %q", sql, want)
		}
	}
	if _, err := Parse(sql); err != nil {
		t.Errorf("fragment SQL %q does not reparse: %v", sql, err)
	}
}
