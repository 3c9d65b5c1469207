package relational

import (
	"fmt"
	"sync"
	"testing"

	"infosleuth/internal/constraint"
)

func mutTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNewTable(Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TypeString},
			{Name: "v", Type: TypeNumber},
		},
		Key: "id",
	})
	for i, id := range []string{"a", "b", "c"} {
		tbl.MustInsert(Row{Str(id), Num(float64(i * 10))})
	}
	return tbl
}

func TestUpdate(t *testing.T) {
	tbl := mutTable(t)
	if err := tbl.Update(Str("b"), Row{Str("b"), Num(99)}); err != nil {
		t.Fatal(err)
	}
	r, ok := tbl.Lookup(Str("b"))
	if !ok || !r[1].Equal(Num(99)) {
		t.Errorf("updated row = %v %v", r, ok)
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestUpdateErrors(t *testing.T) {
	tbl := mutTable(t)
	if err := tbl.Update(Str("zz"), Row{Str("zz"), Num(1)}); err == nil {
		t.Error("missing key should fail")
	}
	if err := tbl.Update(Str("a"), Row{Str("a")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tbl.Update(Str("a"), Row{Str("a"), Str("not a number")}); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := tbl.Update(Str("a"), Row{Str("b"), Num(1)}); err == nil {
		t.Error("key change should fail")
	}
	keyless := MustNewTable(Schema{Name: "k", Columns: []Column{{Name: "x", Type: TypeNumber}}})
	if err := keyless.Update(Num(1), Row{Num(1)}); err == nil {
		t.Error("keyless update should fail")
	}
}

func TestDelete(t *testing.T) {
	tbl := mutTable(t)
	if !tbl.Delete(Str("a")) {
		t.Fatal("delete missed existing key")
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if _, ok := tbl.Lookup(Str("a")); ok {
		t.Error("deleted row still visible")
	}
	// The swapped-in row remains addressable.
	r, ok := tbl.Lookup(Str("c"))
	if !ok || !r[1].Equal(Num(20)) {
		t.Errorf("post-delete lookup of c = %v %v", r, ok)
	}
	if tbl.Delete(Str("a")) {
		t.Error("double delete should report false")
	}
	// Delete the last row.
	tbl.Delete(Str("b"))
	tbl.Delete(Str("c"))
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after emptying", tbl.Len())
	}
	// Reinsert after delete works (key index cleaned).
	tbl.MustInsert(Row{Str("a"), Num(1)})
	if tbl.Len() != 1 {
		t.Error("reinsert after delete failed")
	}
}

func TestDeleteKeyless(t *testing.T) {
	keyless := MustNewTable(Schema{Name: "k", Columns: []Column{{Name: "x", Type: TypeNumber}}})
	keyless.MustInsert(Row{Num(1)})
	if keyless.Delete(Num(1)) {
		t.Error("keyless delete should report false")
	}
}

// TestScanDuringUpdateAndDelete runs scans beside updates and deletes on
// a keyed table. Each scan must see one snapshot: every key once, and as
// many rows as the table held at some instant. Under -race it also holds
// Update and Delete to never writing the rows a running scan reads.
func TestScanDuringUpdateAndDelete(t *testing.T) {
	const n = 100
	tbl := MustNewTable(Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: TypeString}, {Name: "v", Type: TypeNumber}},
		Key:     "id",
	})
	key := func(i int) constraint.Value { return Str(fmt.Sprintf("k%03d", i%n)) }
	for i := 0; i < n; i++ {
		tbl.MustInsert(Row{key(i), Num(float64(i))})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			k := key(i * 7)
			if i%3 == 0 {
				if tbl.Delete(k) {
					tbl.MustInsert(Row{k, Num(float64(i))})
				}
			} else if err := tbl.Update(k, Row{k, Num(float64(i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for scan := 0; scan < 300; scan++ {
		seen := make(map[string]bool, n)
		tbl.Scan(func(r Row) bool {
			if k := r[0].Text(); seen[k] {
				t.Errorf("scan %d saw key %s twice", scan, k)
			} else {
				seen[k] = true
			}
			return true
		})
		// A scan may begin between a Delete and the Insert that follows.
		if len(seen) != n && len(seen) != n-1 {
			t.Errorf("scan %d saw %d rows, want %d or %d", scan, len(seen), n, n-1)
		}
	}
	close(done)
	wg.Wait()
}
