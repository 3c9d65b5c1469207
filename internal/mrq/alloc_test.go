//go:build !race

package mrq

import "testing"

// TestMergeFragmentsAllocs: the merge runs once per class on every query,
// and costs about three allocations per merged row (the row, its copy in
// the table, the table's text key), not a rendered key per value.
// Not under -race, like every allocation ceiling in the repository.
func TestMergeFragmentsAllocs(t *testing.T) {
	frags := benchFragments(8, 64) // 576 rows in, 512 out
	n := testing.AllocsPerRun(20, func() {
		if _, err := MergeFragments("C2", "id", frags); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1700 {
		t.Errorf("MergeFragments allocates %.0f per merge of benchFragments(8, 64), want <= 1700", n)
	}
}
