//go:build !race

package sqlparse

import (
	"fmt"
	"testing"

	"infosleuth/internal/relational"
)

// TestExecuteSelectStarAllocs: a projection that keeps every column in
// order returns the stored rows themselves, so SELECT * and the same
// columns named in order allocate per query, not per row.
// Not under -race, like every allocation ceiling in the repository.
func TestExecuteSelectStarAllocs(t *testing.T) {
	for _, sql := range []string{"SELECT * FROM t", "SELECT id, a FROM t"} {
		var counts []float64
		for _, rows := range []int{64, 512} {
			tbl := relational.MustNewTable(relational.Schema{
				Name:    "t",
				Columns: []relational.Column{{Name: "id", Type: relational.TypeString}, {Name: "a", Type: relational.TypeNumber}},
				Key:     "id",
			})
			for i := 0; i < rows; i++ {
				tbl.MustInsert(relational.Row{relational.Str(fmt.Sprintf("k%04d", i)), relational.Num(float64(i))})
			}
			db := relational.NewDatabase()
			if err := db.Attach(tbl); err != nil {
				t.Fatal(err)
			}
			stmt := MustParse(sql)
			n := testing.AllocsPerRun(20, func() {
				if _, err := Execute(db, stmt); err != nil {
					t.Fatal(err)
				}
			})
			if n > 40 {
				t.Errorf("%s over %d rows allocates %.0f, want <= 40", sql, rows, n)
			}
			counts = append(counts, n)
		}
		if counts[1] > counts[0] {
			t.Errorf("%s allocates %.0f over 64 rows but %.0f over 512", sql, counts[0], counts[1])
		}
	}
}

// TestExecuteNarrowedProjectionAllocs: a projection that reorders or
// narrows the columns carves its rows from one slab, so it too allocates
// per query, not per row.
func TestExecuteNarrowedProjectionAllocs(t *testing.T) {
	var counts []float64
	for _, rows := range []int{64, 512} {
		tbl := relational.MustNewTable(relational.Schema{
			Name:    "t",
			Columns: []relational.Column{{Name: "id", Type: relational.TypeString}, {Name: "a", Type: relational.TypeNumber}},
			Key:     "id",
		})
		for i := 0; i < rows; i++ {
			tbl.MustInsert(relational.Row{relational.Str(fmt.Sprintf("k%04d", i)), relational.Num(float64(i))})
		}
		db := relational.NewDatabase()
		if err := db.Attach(tbl); err != nil {
			t.Fatal(err)
		}
		stmt := MustParse("SELECT a, id FROM t")
		res, err := Execute(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Rows[0]; cap(r) != len(r) || len(res.Rows) != rows {
			t.Fatalf("%d rows of width %d and capacity %d, want %d rows capped at their width", len(res.Rows), len(r), cap(r), rows)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := Execute(db, stmt); err != nil {
				t.Fatal(err)
			}
		})
		if n > 40 {
			t.Errorf("SELECT a, id over %d rows allocates %.0f, want <= 40", rows, n)
		}
		counts = append(counts, n)
	}
	if counts[1] > counts[0] {
		t.Errorf("SELECT a, id allocates %.0f over 64 rows but %.0f over 512", counts[0], counts[1])
	}
}
