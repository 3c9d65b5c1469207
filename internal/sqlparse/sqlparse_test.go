package sqlparse

import (
	"reflect"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/relational"
)

func testDB(t *testing.T) *relational.Database {
	t.Helper()
	db := relational.NewDatabase()
	p := db.MustCreate(relational.Schema{
		Name: "patient",
		Columns: []relational.Column{
			{Name: "patient_id", Type: relational.TypeString},
			{Name: "patient_age", Type: relational.TypeNumber},
			{Name: "region", Type: relational.TypeString},
		},
		Key: "patient_id",
	})
	d := db.MustCreate(relational.Schema{
		Name: "diagnosis",
		Columns: []relational.Column{
			{Name: "diagnosis_code", Type: relational.TypeString},
			{Name: "patient_id", Type: relational.TypeString},
			{Name: "cost", Type: relational.TypeNumber},
		},
	})
	rows := []struct {
		id     string
		age    float64
		region string
	}{
		{"P1", 44, "Dallas"}, {"P2", 80, "Houston"}, {"P3", 60, "Dallas"}, {"P4", 30, "Austin"},
	}
	for _, r := range rows {
		p.MustInsert(relational.Row{relational.Str(r.id), relational.Num(r.age), relational.Str(r.region)})
	}
	diags := []struct {
		code string
		id   string
		cost float64
	}{
		{"40W", "P1", 1000}, {"41W", "P2", 2000}, {"40W", "P3", 1500}, {"12K", "P4", 800},
	}
	for _, r := range diags {
		d.MustInsert(relational.Row{relational.Str(r.code), relational.Str(r.id), relational.Num(r.cost)})
	}
	return db
}

func run(t *testing.T, db *relational.Database, q string) *Result {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	res, err := Execute(db, stmt)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT * FROM patient")
	if res.Len() != 4 {
		t.Errorf("rows = %d, want 4", res.Len())
	}
	if !reflect.DeepEqual(res.Columns, []string{"patient_id", "patient_age", "region"}) {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectWhere(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		q    string
		want int
	}{
		{"SELECT * FROM patient WHERE patient_age > 50", 2},
		{"SELECT * FROM patient WHERE patient_age >= 60", 2},
		{"SELECT * FROM patient WHERE patient_age < 44", 1},
		{"SELECT * FROM patient WHERE patient_age <= 44", 2},
		{"SELECT * FROM patient WHERE patient_age = 44", 1},
		{"SELECT * FROM patient WHERE patient_age <> 44", 3},
		{"SELECT * FROM patient WHERE patient_age != 44", 3},
		{"SELECT * FROM patient WHERE region = 'Dallas'", 2},
		{"SELECT * FROM patient WHERE region = 'Dallas' AND patient_age > 50", 1},
		{"SELECT * FROM patient WHERE patient_age BETWEEN 25 AND 65", 3},
		{"SELECT * FROM patient WHERE patient_age BETWEEN 81 AND 99", 0},
	}
	for _, tt := range tests {
		t.Run(tt.q, func(t *testing.T) {
			if got := run(t, db, tt.q).Len(); got != tt.want {
				t.Errorf("rows = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestProjection(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT region, patient_id FROM patient WHERE patient_id = 'P1'")
	if !reflect.DeepEqual(res.Columns, []string{"region", "patient_id"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Len() != 1 || res.Rows[0][0].Text() != "Dallas" || res.Rows[0][1].Text() != "P1" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestJoinCommaStyle(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT p.patient_id, d.cost FROM patient p, diagnosis d WHERE p.patient_id = d.patient_id AND d.diagnosis_code = '40W' ORDER BY cost")
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	// Ordered by cost ascending: P1 (1000) then P3 (1500).
	if res.Rows[0][0].Text() != "P1" || res.Rows[1][0].Text() != "P3" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestJoinExplicit(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT p.patient_id FROM patient p JOIN diagnosis d ON p.patient_id = d.patient_id WHERE d.cost > 1200 ORDER BY patient_id")
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (P2 and P3)", res.Len())
	}
	if res.Rows[0][0].Text() != "P2" || res.Rows[1][0].Text() != "P3" {
		t.Errorf("rows = %v, want P2 then P3", res.Rows)
	}
}

func TestJoinQualifiedStar(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT * FROM patient p, diagnosis d WHERE p.patient_id = d.patient_id")
	if res.Len() != 4 {
		t.Fatalf("rows = %d, want 4", res.Len())
	}
	if len(res.Columns) != 6 {
		t.Errorf("columns = %v, want 6 qualified columns", res.Columns)
	}
	if res.Columns[0] != "p.patient_id" {
		t.Errorf("first column = %q, want qualified p.patient_id", res.Columns[0])
	}
}

func TestUnionDeduplicates(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT region FROM patient WHERE patient_age > 50 UNION SELECT region FROM patient WHERE region = 'Dallas'")
	// >50: Houston, Dallas. ='Dallas': Dallas, Dallas. Distinct: Houston, Dallas.
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2 after dedup: %v", res.Len(), res.Rows)
	}
}

func TestUnionColumnCountMismatch(t *testing.T) {
	db := testDB(t)
	stmt := MustParse("SELECT region FROM patient UNION SELECT patient_id, region FROM patient")
	if _, err := Execute(db, stmt); err == nil {
		t.Error("mismatched UNION arity should error")
	}
}

func TestOrderByDesc(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT patient_id, patient_age FROM patient ORDER BY patient_age DESC")
	if res.Rows[0][0].Text() != "P2" {
		t.Errorf("first row = %v, want P2 (age 80)", res.Rows[0])
	}
	if res.Rows[3][0].Text() != "P4" {
		t.Errorf("last row = %v, want P4 (age 30)", res.Rows[3])
	}
}

func TestExecuteErrors(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{
		"SELECT * FROM nothere",
		"SELECT nope FROM patient",
		"SELECT patient_id FROM patient, diagnosis", // ambiguous
		"SELECT * FROM patient ORDER BY nope",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		if _, err := Execute(db, stmt); err == nil {
			t.Errorf("Execute(%q) should fail", q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * WHERE x = 1",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x",
		"SELECT * FROM t WHERE x ~ 1",
		"SELECT * FROM t WHERE x BETWEEN 1",
		"SELECT * FROM t ORDER",
		"SELECT * FROM t extra garbage ,",
		"FROM t",
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := MustParse("select * from Patient where Patient_Age > 10")
	if !s.Star || len(s.From) != 1 || s.From[0].Name != "Patient" {
		t.Errorf("parsed = %+v", s)
	}
}

func TestTablesDiscovery(t *testing.T) {
	s := MustParse("SELECT * FROM C2 UNION SELECT * FROM C3 UNION SELECT * FROM C2")
	got := s.Tables()
	if !reflect.DeepEqual(got, []string{"C2", "C3"}) {
		t.Errorf("Tables = %v", got)
	}
	s = MustParse("SELECT p.a FROM C1 p, C2 q WHERE p.id = q.id")
	if got := s.Tables(); !reflect.DeepEqual(got, []string{"C1", "C2"}) {
		t.Errorf("Tables = %v", got)
	}
}

func TestCapabilities(t *testing.T) {
	tests := []struct {
		q    string
		want []string
	}{
		{"SELECT * FROM C2", []string{"select"}},
		{"SELECT a FROM C2", []string{"select", "project"}},
		{"SELECT * FROM C1, C2 WHERE C1.id = C2.id", []string{"select", "join"}},
		{"SELECT * FROM C1 UNION SELECT * FROM C2", []string{"select", "union"}},
		{"SELECT a FROM C1 JOIN C2 ON C1.id = C2.id UNION SELECT a FROM C3",
			[]string{"select", "project", "join", "union"}},
	}
	for _, tt := range tests {
		t.Run(tt.q, func(t *testing.T) {
			got := MustParse(tt.q).Capabilities()
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Capabilities = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestWhereConstraints(t *testing.T) {
	s := MustParse("SELECT * FROM patient WHERE patient_age BETWEEN 25 AND 65 AND diagnosis_code = '40W'")
	cs := s.WhereConstraints()
	ad := constraint.MustParse("patient.patient_age between 43 and 75")
	if !ad.Overlaps(cs) {
		t.Error("SQL-derived constraints should overlap the paper's advertisement")
	}
	a, ok := cs.Atom("patient.patient_age")
	if !ok {
		t.Fatalf("age atom missing; fields = %v", cs.Fields())
	}
	if !a.Matches(constraint.Num(30)) || a.Matches(constraint.Num(70)) {
		t.Errorf("age atom = %v", a)
	}
	// Alias resolution.
	s = MustParse("SELECT * FROM patient p WHERE p.patient_age > 50")
	cs = s.WhereConstraints()
	if _, ok := cs.Atom("patient.patient_age"); !ok {
		t.Errorf("alias not resolved; fields = %v", cs.Fields())
	}
}

func TestSelectStringRoundTrip(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM C2",
		"SELECT a, b FROM C2 WHERE a > 10 AND b = 'x'",
		"SELECT p.a FROM C1 p, C2 q WHERE p.id = q.id",
		"SELECT * FROM C1 UNION SELECT * FROM C2 ORDER BY id",
		"SELECT * FROM t WHERE x BETWEEN 1 AND 2",
	} {
		s1 := MustParse(q)
		s2, err := Parse(s1.String())
		if err != nil {
			t.Fatalf("round trip of %q -> %q failed: %v", q, s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip drift: %q -> %q", s1.String(), s2.String())
		}
	}
}

func TestResultColIndexAndString(t *testing.T) {
	db := testDB(t)
	res := run(t, db, "SELECT p.patient_id, p.region FROM patient p WHERE p.patient_id = 'P1'")
	if res.ColIndex("region") != 1 {
		t.Errorf("ColIndex(region) = %d", res.ColIndex("region"))
	}
	if res.ColIndex("p.patient_id") != 0 {
		t.Errorf("ColIndex(p.patient_id) = %d", res.ColIndex("p.patient_id"))
	}
	if res.ColIndex("zz") != -1 {
		t.Error("missing column should be -1")
	}
	out := res.String()
	if !strings.Contains(out, "Dallas") || !strings.Contains(out, "p.patient_id") {
		t.Errorf("rendered table missing content:\n%s", out)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// The hash-join fast path and the nested-loop fallback must agree.
	// Force the fallback by using an inequality join.
	db := testDB(t)
	eq := run(t, db, "SELECT p.patient_id FROM patient p, diagnosis d WHERE p.patient_id = d.patient_id ORDER BY patient_id")
	// Self-check with explicit JOIN syntax (also hash-joinable).
	eq2 := run(t, db, "SELECT p.patient_id FROM patient p JOIN diagnosis d ON d.patient_id = p.patient_id ORDER BY patient_id")
	if eq.Len() != eq2.Len() {
		t.Fatalf("join results differ: %d vs %d", eq.Len(), eq2.Len())
	}
	for i := range eq.Rows {
		if eq.Rows[i][0].Text() != eq2.Rows[i][0].Text() {
			t.Errorf("row %d differs: %v vs %v", i, eq.Rows[i], eq2.Rows[i])
		}
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	db.MustCreate(relational.Schema{
		Name: "referral",
		Columns: []relational.Column{
			{Name: "patient_id", Type: relational.TypeString},
			{Name: "to_region", Type: relational.TypeString},
		},
	})
	ref, _ := db.Table("referral")
	ref.MustInsert(relational.Row{relational.Str("P1"), relational.Str("Houston")})
	res := run(t, db, "SELECT p.patient_id, r.to_region, d.cost FROM patient p, diagnosis d, referral r WHERE p.patient_id = d.patient_id AND p.patient_id = r.patient_id")
	if res.Len() != 1 || res.Rows[0][1].Text() != "Houston" {
		t.Errorf("three-way join = %v", res.Rows)
	}
}

// TestNumberExponents: the lexer reads the exponent form that
// constraint.Value.String writes for small and large numbers, so a
// rendered condition parses back to the same value; an e with no digits
// after it is not part of the number.
func TestNumberExponents(t *testing.T) {
	for _, v := range []float64{0.00001, 1e15, -2.5e-7, 1.5e300} {
		cond := Cond{Left: ColRef{Column: "a"}, Op: OpGt, RightVal: constraint.Num(v)}
		stmt, err := Parse("SELECT id FROM t WHERE " + cond.String())
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		if got := stmt.Where[0].RightVal.Number(); got != v {
			t.Errorf("%s parsed to %v, want %v", cond, got, v)
		}
	}
	if _, err := Parse("SELECT id FROM t WHERE a = 1e"); err == nil {
		t.Error("a bare trailing e was read as part of the number")
	}
	stmt, err := Parse("SELECT id FROM t WHERE a = 2E+3")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.Where[0].RightVal.Number(); got != 2000 {
		t.Errorf("2E+3 parsed to %v, want 2000", got)
	}
}
