package sqlparse

import "testing"

// fuzzSeeds seed both SQL fuzz targets.
var fuzzSeeds = []string{
	"SELECT id, a FROM C2 WHERE a > 0.00001",
	"SELECT * FROM C2 WHERE a >= 1e+15 AND b < -2.5E-3",
	"SELECT id FROM C2 WHERE b IN (10, 30, 'x', \"it's\")",
	"SELECT id FROM C2 WHERE a BETWEEN 43 AND 75 AND id = 'k1'",
	"SELECT p.id, q.a FROM C1 p, C2 q WHERE p.b = q.b ORDER BY id",
	"SELECT C1.id FROM C1 JOIN C2 ON C1.id = C2.id WHERE C2.a <> 3",
	"SELECT id FROM C1 WHERE a < 5 UNION SELECT id FROM C2 WHERE a != 7 ORDER BY id DESC",
	"SELECT d, COUNT(*), SUM(a), AVG(c), MIN(b), MAX(b) FROM C3 WHERE a BETWEEN 0 AND 999 GROUP BY d ORDER BY d DESC",
	"SELECT COUNT(*) FROM C2 WHERE a = 1e",
}

// FuzzSQLRoundTrip: whatever Parse accepts renders (String) to SQL that
// parses again, and that rendering is a fixed point — the MRQ ships
// rendered statements to resources, which must read back what was meant.
func FuzzSQLRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		stmt, err := Parse(in)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", in, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which parses and renders as %q", in, text, got)
		}
	})
}

// FuzzFragmentSQL: the fragment queries the MRQ derives from a statement
// Parse accepts are SQL a resource reads back as sent. For each class the
// statement reads, the pushed-down select and, when the statement splits
// into partial aggregates, the partial-aggregate query must parse and
// render to themselves.
func FuzzFragmentSQL(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		stmt, err := Parse(in)
		if err != nil {
			return
		}
		agg, aggOK := PlanPartialAggregates(stmt)
		for _, class := range stmt.Tables() {
			pp := stmt.PushPlanFor(class)
			var cols []string
			if !pp.AllCols {
				cols = pp.Cols
			}
			checkFragmentSQL(t, in, RenderFragmentSelect(class, cols, pp.Conds))
			if aggOK {
				checkFragmentSQL(t, in, agg.FragmentSQL(class, pp.Conds))
			}
		}
	})
}

func checkFragmentSQL(t *testing.T, in, sql string) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q) yields fragment query %q, which does not parse: %v", in, sql, err)
	}
	if got := stmt.String(); got != sql {
		t.Fatalf("Parse(%q) yields fragment query %q, which parses and renders as %q", in, sql, got)
	}
}
