package mrq

import (
	"slices"
	"strings"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/relational"
)

func sqlRes(cols []string, rows ...relational.Row) *kqml.SQLResult {
	return &kqml.SQLResult{Columns: cols, Rows: rows}
}

func num(f float64) constraint.Value { return constraint.Num(f) }
func str(s string) constraint.Value  { return constraint.Str(s) }

func TestMergeFragmentsHorizontalUnion(t *testing.T) {
	r1 := sqlRes([]string{"id", "a"},
		relational.Row{str("k1"), num(1)},
		relational.Row{str("k2"), num(2)},
	)
	r2 := sqlRes([]string{"id", "a"},
		relational.Row{str("k2"), num(2)}, // duplicate of r1's k2
		relational.Row{str("k3"), num(3)},
	)
	tbl, err := MergeFragments("C2", "id", []*kqml.SQLResult{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Errorf("rows = %d, want 3 (k2 deduplicated)", tbl.Len())
	}
	if tbl.Name() != "C2" {
		t.Errorf("table name = %q", tbl.Name())
	}
	row, ok := tbl.Lookup(str("k3"))
	if !ok || !row[1].Equal(num(3)) {
		t.Errorf("k3 = %v %v", row, ok)
	}
}

func TestMergeFragmentsVerticalJoin(t *testing.T) {
	r1 := sqlRes([]string{"id", "a", "b"},
		relational.Row{str("k1"), num(1), num(10)},
		relational.Row{str("k2"), num(2), num(20)},
	)
	r2 := sqlRes([]string{"id", "c"},
		relational.Row{str("k1"), num(100)},
		relational.Row{str("k2"), num(200)},
	)
	tbl, err := MergeFragments("C2", "id", []*kqml.SQLResult{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tbl.Len())
	}
	s := tbl.Schema()
	if len(s.Columns) != 4 || s.Columns[0].Name != "id" {
		t.Fatalf("columns = %v", s.ColNames())
	}
	row, ok := tbl.Lookup(str("k1"))
	if !ok {
		t.Fatal("k1 missing")
	}
	ci := s.ColIndex("c")
	if !row[ci].Equal(num(100)) {
		t.Errorf("joined c = %v, want 100", row[ci])
	}
}

func TestMergeFragmentsPartialVerticalCoverage(t *testing.T) {
	// k2 appears only in the first fragment: it is kept, with the
	// missing column zero-filled.
	r1 := sqlRes([]string{"id", "a"},
		relational.Row{str("k1"), num(1)},
		relational.Row{str("k2"), num(2)},
	)
	r2 := sqlRes([]string{"id", "c"},
		relational.Row{str("k1"), num(100)},
	)
	tbl, err := MergeFragments("C2", "id", []*kqml.SQLResult{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tbl.Len())
	}
	row, _ := tbl.Lookup(str("k2"))
	ci := tbl.Schema().ColIndex("c")
	if !row[ci].Equal(num(0)) {
		t.Errorf("missing cell = %v, want zero fill", row[ci])
	}
}

func TestMergeFragmentsVerticalWithoutKeyFails(t *testing.T) {
	r1 := sqlRes([]string{"id", "a"}, relational.Row{str("k1"), num(1)})
	r2 := sqlRes([]string{"id", "c"}, relational.Row{str("k1"), num(2)})
	if _, err := MergeFragments("C2", "", []*kqml.SQLResult{r1, r2}); err == nil {
		t.Error("vertical fragments without a key should fail")
	}
}

func TestMergeFragmentsFragmentMissingKeyFails(t *testing.T) {
	r1 := sqlRes([]string{"id", "a"}, relational.Row{str("k1"), num(1)})
	r2 := sqlRes([]string{"c", "d"}, relational.Row{num(1), num(2)})
	if _, err := MergeFragments("C2", "id", []*kqml.SQLResult{r1, r2}); err == nil {
		t.Error("fragment without the key column should fail")
	}
}

func TestMergeFragmentsRepeatedColumnFails(t *testing.T) {
	for _, frags := range [][]*kqml.SQLResult{
		{sqlRes([]string{"id", "a", "A"}, relational.Row{str("k1"), num(1), num(2)})},
		{sqlRes([]string{"id", "a", "A"}, relational.Row{str("k1"), num(1), num(2)}),
			sqlRes([]string{"id", "c"}, relational.Row{str("k1"), num(3)})},
	} {
		if _, err := MergeFragments("C2", "id", frags); err == nil || !strings.Contains(err.Error(), "repeats column") {
			t.Errorf("%d fragments, one naming a twice: err = %v", len(frags), err)
		}
	}
}

func TestMergeFragmentsEmpty(t *testing.T) {
	if _, err := MergeFragments("C2", "id", nil); err == nil {
		t.Error("no fragments should fail")
	}
}

func TestMergeFragmentsTypeInference(t *testing.T) {
	r := sqlRes([]string{"id", "a", "label"},
		relational.Row{str("k1"), num(1), str("x")},
	)
	tbl, err := MergeFragments("C2", "id", []*kqml.SQLResult{r})
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	if s.Columns[1].Type != relational.TypeNumber {
		t.Error("numeric column inferred as string")
	}
	if s.Columns[2].Type != relational.TypeString {
		t.Error("string column inferred as number")
	}
}

func TestMergeFragmentsReplicaKeyCollision(t *testing.T) {
	// Two replicas return the same key in the same column signature
	// after dedup of identical rows; a conflicting row for an existing
	// key keeps the least row by value (replica semantics), so 9 beats
	// 10 whichever replica answered first.
	for _, tc := range []struct{ first, second, want float64 }{
		{1, 999, 1},
		{10, 9, 9},
	} {
		r1 := sqlRes([]string{"id", "a"}, relational.Row{str("k1"), num(tc.first)})
		r2 := sqlRes([]string{"id", "a"}, relational.Row{str("k1"), num(tc.second)})
		tbl, err := MergeFragments("C2", "id", []*kqml.SQLResult{r1, r2})
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 1 {
			t.Fatalf("rows = %d, want 1", tbl.Len())
		}
		row, _ := tbl.Lookup(str("k1"))
		if !row[1].Equal(num(tc.want)) {
			t.Errorf("replicas a=%v, a=%v: kept row = %v, want a=%v", tc.first, tc.second, row, tc.want)
		}
	}
}

// TestMergeFragmentsCoercedKeysCollide: replicas that share a column
// signature but disagree on a column's kind. The id column is numeric
// (the least row, (1, 10), holds a number there), so 'x' and 'y' both
// coerce to 0 and collide: the table keeps one row for key 0, the least
// coerced row (0, 20), and sorts it before key 1, in either fragment
// order. Sorting and deduplicating before coercing would keep both rows
// for key 0, after key 1.
func TestMergeFragmentsCoercedKeysCollide(t *testing.T) {
	frags := func() []*kqml.SQLResult {
		return []*kqml.SQLResult{
			sqlRes([]string{"id", "a"}, relational.Row{num(1), num(10)}),
			sqlRes([]string{"id", "a"}, relational.Row{str("x"), num(20)}, relational.Row{str("y"), num(30)}),
		}
	}
	want := []relational.Row{{num(0), num(20)}, {num(1), num(10)}}
	for _, reverse := range []bool{false, true} {
		in := frags()
		if reverse {
			in[0], in[1] = in[1], in[0]
		}
		tbl, err := MergeFragments("C2", "id", in)
		if err != nil {
			t.Fatal(err)
		}
		got := tbl.Rows()
		if !slices.EqualFunc(got, want, relational.Row.Equal) {
			t.Errorf("reversed %v: merged rows %v, want %v", reverse, got, want)
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Name: "m"}); err == nil {
		t.Error("missing transport/world should fail")
	}
}
