package oql

import (
	"reflect"
	"testing"

	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
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
	for _, r := range []struct {
		id     string
		age    float64
		region string
	}{{"P1", 44, "Dallas"}, {"P2", 80, "Houston"}, {"P3", 60, "Dallas"}, {"P4", 30, "Austin"}} {
		p.MustInsert(relational.Row{relational.Str(r.id), relational.Num(r.age), relational.Str(r.region)})
	}
	d := db.MustCreate(relational.Schema{
		Name: "diagnosis",
		Columns: []relational.Column{
			{Name: "diagnosis_code", Type: relational.TypeString},
			{Name: "patient_id", Type: relational.TypeString},
			{Name: "cost", Type: relational.TypeNumber},
		},
	})
	d.MustInsert(relational.Row{relational.Str("40W"), relational.Str("P1"), relational.Num(1000)})
	d.MustInsert(relational.Row{relational.Str("41W"), relational.Str("P3"), relational.Num(2000)})
	return db
}

func runOQL(t *testing.T, db *relational.Database, q string) *sqlparse.Result {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	res, err := sqlparse.Execute(db, stmt)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestSelectObject(t *testing.T) {
	db := testDB(t)
	res := runOQL(t, db, "select p from p in patient")
	if res.Len() != 4 || len(res.Columns) != 3 {
		t.Errorf("result = %d x %v", res.Len(), res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := runOQL(t, db, "select * from p in patient where p.patient_age > 50")
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestPathsAndBetween(t *testing.T) {
	db := testDB(t)
	res := runOQL(t, db, "select p.patient_id, p.patient_age from p in patient where p.patient_age between 25 and 65 order by p.patient_age")
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Rows[0][1].Number() != 30 {
		t.Errorf("order by ignored: %v", res.Rows)
	}
}

func TestOQLJoin(t *testing.T) {
	db := testDB(t)
	res := runOQL(t, db, "select p.patient_id, d.cost from p in patient, d in diagnosis where p.patient_id = d.patient_id and d.cost >= 1000")
	if res.Len() != 2 {
		t.Errorf("join rows = %d", res.Len())
	}
}

func TestOQLAggregates(t *testing.T) {
	db := testDB(t)
	res := runOQL(t, db, "select count(*) from p in patient")
	if res.Rows[0][0].Number() != 4 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	res = runOQL(t, db, "select avg(p.patient_age), max(p.patient_age) from p in patient")
	if res.Rows[0][0].Number() != 53.5 || res.Rows[0][1].Number() != 80 {
		t.Errorf("aggs = %v", res.Rows[0])
	}
}

func TestOQLStringEquality(t *testing.T) {
	db := testDB(t)
	res := runOQL(t, db, "select p.patient_id from p in patient where p.region = 'Dallas'")
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
}

// TestOQLAndSQLAgree is the package's core claim: the OQL subset and the
// SQL subset translate to the same relational algebra.
func TestOQLAndSQLAgree(t *testing.T) {
	db := testDB(t)
	pairs := []struct{ oql, sql string }{
		{"select * from p in patient", "SELECT * FROM patient"},
		{
			"select p.patient_id from p in patient where p.patient_age between 25 and 65",
			"SELECT patient_id FROM patient WHERE patient_age BETWEEN 25 AND 65",
		},
		{
			"select p.patient_id, d.cost from p in patient, d in diagnosis where p.patient_id = d.patient_id",
			"SELECT p.patient_id, d.cost FROM patient p, diagnosis d WHERE p.patient_id = d.patient_id",
		},
		{
			"select count(*) from p in patient where p.region = 'Dallas'",
			"SELECT COUNT(*) FROM patient WHERE region = 'Dallas'",
		},
	}
	for _, pair := range pairs {
		r1 := runOQL(t, db, pair.oql)
		stmt, err := sqlparse.Parse(pair.sql)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sqlparse.Execute(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Len() != r2.Len() {
			t.Errorf("%q vs %q: %d vs %d rows", pair.oql, pair.sql, r1.Len(), r2.Len())
			continue
		}
		for i := range r1.Rows {
			if !reflect.DeepEqual(r1.Rows[i], r2.Rows[i]) {
				t.Errorf("%q row %d: %v vs %v", pair.oql, i, r1.Rows[i], r2.Rows[i])
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"select",
		"select * from",
		"select * from patient",           // missing "var in"
		"select * from p patient",         // missing in
		"select x.a from p in patient",    // unknown variable
		"select p.a, q from p in patient", // bare object mixed with paths
		"select q from p in patient, q in patient", // duplicate... actually q distinct; bare object with 2 ranges
		"select p from p in patient, p in diagnosis",
		"select p.a from p in patient where p.a ~ 1",
		"select p.a from p in patient where p.a between 1",
		"select sum(*) from p in patient",
		"select p.a from p in patient order p.a",
		"select p.a from p in patient extra",
		"select * from p in where", // an SQL keyword cannot name a class
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestTranslationShape(t *testing.T) {
	s := MustParse("select p.patient_id from p in patient where p.patient_age > 50")
	if len(s.From) != 1 || s.From[0].Name != "patient" || s.From[0].Alias != "p" {
		t.Errorf("From = %+v", s.From)
	}
	if got := s.Tables(); len(got) != 1 || got[0] != "patient" {
		t.Errorf("Tables = %v", got)
	}
	// WHERE constraints flow to broker queries like SQL's.
	cs := s.WhereConstraints()
	if _, ok := cs.Atom("patient.patient_age"); !ok {
		t.Errorf("constraints = %v", cs.Fields())
	}
}
