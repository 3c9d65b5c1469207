package oql

import (
	"testing"

	"infosleuth/internal/sqlparse"
)

// FuzzOQLParse: Parse never panics, and whatever it accepts translates to
// a statement whose SQL rendering (Select.String) parses with
// sqlparse.Parse and renders again unchanged — an OQL resource's query is
// the same relational statement an SQL resource would run.
func FuzzOQLParse(f *testing.F) {
	for _, seed := range []string{
		"select p from p in patient",
		"select * from p in patient where p.patient_age between 25 and 65",
		"select p.patient_id, p.patient_age from p in patient where p.patient_age >= 43 and p.region = 'Dallas' order by p.patient_age desc",
		"select p.patient_id, d.cost from p in patient, d in diagnosis where p.patient_id = d.patient_id and d.cost <> -2.5",
		"select count(*), sum(p.patient_age), avg(p.patient_age), min(p.region), max(p.region) from p in patient",
		"select p.region from p in patient where p.region != \"it's\" order by p.region asc",
		"SELECT P.A FROM P IN C2 WHERE P.A < 0.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		stmt, err := Parse(in)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := sqlparse.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which sqlparse does not parse: %v", in, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders %q, which parses and renders as %q", in, text, got)
		}
	})
}
