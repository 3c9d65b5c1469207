package relational_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
)

// TestNewTableOfAdoptsRows: NewTableOf stores the rows it is given, not
// copies of them, yet its keyed calls behave exactly as on a table built
// with NewTable and Insert. A Scan snapshot, and an Execute result whose
// rows are the stored rows, stay as they were through a later Update and
// Delete.
func TestNewTableOfAdoptsRows(t *testing.T) {
	schema := relational.Schema{
		Name:    "t",
		Columns: []relational.Column{{Name: "id", Type: relational.TypeString}, {Name: "a", Type: relational.TypeNumber}},
		Key:     "id",
	}
	row := func(i int) relational.Row {
		return relational.Row{relational.Str(fmt.Sprintf("k%d", i)), relational.Num(float64(i))}
	}
	var rows []relational.Row
	built := relational.MustNewTable(schema)
	for i := 0; i < 4; i++ {
		rows = append(rows, row(i))
		built.MustInsert(row(i))
	}
	if _, err := relational.NewTableOf(schema, []relational.Row{{relational.Str("x"), relational.Str("y")}}); err == nil {
		t.Error("NewTableOf accepted a row that does not fit the schema")
	}
	adopted, err := relational.NewTableOf(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	var snap []relational.Row
	adopted.Scan(func(r relational.Row) bool {
		if &r[0] != &rows[len(snap)][0] {
			t.Errorf("stored row %d is a copy of the row given", len(snap))
		}
		snap = append(snap, r)
		return true
	})
	db := relational.NewDatabase()
	if err := db.Attach(adopted); err != nil {
		t.Fatal(err)
	}
	res, err := sqlparse.Execute(db, sqlparse.MustParse("SELECT * FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(rows) || &res.Rows[0][0] != &rows[0][0] {
		t.Errorf("SELECT * copied the stored rows")
	}

	for _, tbl := range []*relational.Table{adopted, built} {
		if r, ok := tbl.Lookup(relational.Str("k2")); !ok || !r.Equal(row(2)) {
			t.Errorf("Lookup(k2) = %v, %v", r, ok)
		}
		if err := tbl.Insert(row(1)); err == nil {
			t.Error("Insert of a duplicate key succeeded")
		}
		if err := tbl.Insert(row(9)); err != nil {
			t.Error(err)
		}
		if r, ok := tbl.Lookup(relational.Str("k9")); !ok || !r.Equal(row(9)) {
			t.Errorf("Lookup(k9) = %v, %v", r, ok)
		}
		updated := relational.Row{relational.Str("k1"), relational.Num(100)}
		if err := tbl.Update(relational.Str("k1"), updated); err != nil {
			t.Error(err)
		}
		if err := tbl.Update(relational.Str("k7"), row(7)); err == nil {
			t.Error("Update of a missing key succeeded")
		}
		if !tbl.Delete(relational.Str("k0")) || tbl.Delete(relational.Str("k0")) {
			t.Error("Delete(k0) did not remove exactly one row")
		}
		if _, ok := tbl.Lookup(relational.Str("k0")); ok {
			t.Error("Lookup found a deleted key")
		}
		if r, ok := tbl.Lookup(relational.Str("k1")); !ok || !r.Equal(updated) {
			t.Errorf("Lookup(k1) after Update = %v, %v", r, ok)
		}
	}
	got, want := adopted.Rows(), built.Rows()
	if len(got) != len(want) {
		t.Fatalf("adopted table has %d rows, built table %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("row %d: adopted %v, built %v", i, got[i], want[i])
		}
	}
	for i := range snap {
		if !snap[i].Equal(row(i)) || !res.Rows[i].Equal(row(i)) {
			t.Errorf("row %d changed under a later Update or Delete: snapshot %v, result %v", i, snap[i], res.Rows[i])
		}
	}
	// A scan that an Update and a Delete overtake still reads the rows
	// as they stood when it began.
	var during []relational.Row
	adopted.Scan(func(r relational.Row) bool {
		if during == nil {
			if err := adopted.Update(relational.Str("k2"), relational.Row{relational.Str("k2"), relational.Num(200)}); err != nil {
				t.Error(err)
			}
			adopted.Delete(relational.Str("k3"))
		}
		during = append(during, r)
		return true
	})
	if !slices.EqualFunc(during, got, relational.Row.Equal) {
		t.Errorf("a scan overtaken by an Update and a Delete read %v, want %v", during, got)
	}
}

// TestNewTableOfConcurrentKeyedCalls: the first keyed calls on an adopted
// table race to build its key index while others scan it; every call
// sees a whole index. Run under -race.
func TestNewTableOfConcurrentKeyedCalls(t *testing.T) {
	schema := relational.Schema{
		Name:    "t",
		Columns: []relational.Column{{Name: "id", Type: relational.TypeNumber}},
		Key:     "id",
	}
	const n = 64
	rows := make([]relational.Row, n)
	for i := range rows {
		rows[i] = relational.Row{relational.Num(float64(i))}
	}
	tbl, err := relational.NewTableOf(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, ok := tbl.Lookup(relational.Num(float64(i))); !ok {
					t.Errorf("goroutine %d: Lookup(%d) missed", g, i)
				}
				if err := tbl.Insert(relational.Row{relational.Num(float64(n + g*n + i))}); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
				tbl.Scan(func(relational.Row) bool { return true })
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 5*n {
		t.Errorf("Len = %d, want %d", tbl.Len(), 5*n)
	}
}
