//go:build !race

package mrq

import "testing"

// TestMergeFragmentsAllocs: the merge runs once per class on every query.
// With a vertical fragment beside the horizontal ones, it builds one
// output row per key and nothing else per row: no copy in the table, no
// rendered key.
// Not under -race, like every allocation ceiling in the repository.
func TestMergeFragmentsAllocs(t *testing.T) {
	frags := benchFragments(8, 64) // 576 rows in, 512 out
	n := testing.AllocsPerRun(20, func() {
		if _, err := MergeFragments("C2", "id", frags); err != nil {
			t.Fatal(err)
		}
	})
	if n > 600 {
		t.Errorf("MergeFragments allocates %.0f per merge of benchFragments(8, 64), want <= 600", n)
	}
}

// TestMergeFragmentsHorizontalAllocs: fragments that share one column
// signature are a horizontal union, whose rows are the merged rows, so the
// merge allocates per fragment, not per row.
func TestMergeFragmentsHorizontalAllocs(t *testing.T) {
	var counts []float64
	for _, rows := range []int{64, 512} {
		frags := benchFragments(8, rows)[:8] // drop the vertical fragment
		n := testing.AllocsPerRun(20, func() {
			if _, err := MergeFragments("C2", "id", frags); err != nil {
				t.Fatal(err)
			}
		})
		if n > 40 {
			t.Errorf("MergeFragments allocates %.0f per merge of 8 horizontal fragments of %d rows, want <= 40", n, rows)
		}
		counts = append(counts, n)
	}
	if counts[1] > counts[0] {
		t.Errorf("MergeFragments allocates %.0f for 8x64 rows but %.0f for 8x512", counts[0], counts[1])
	}
}
