//go:build !race

package constraint

import "testing"

// TestSetOverlapsAllocs: the overlap test is a merge of two sorted atom
// slices and allocates nothing, overlapping or not.
// Not under -race, like every allocation ceiling in the repository.
func TestSetOverlapsAllocs(t *testing.T) {
	sub := MustParse("(c.a between 10 and 20) AND (c.b in ('x', 'y')) AND (c.d >= 3)")
	hit := MustParse("(c.a = 15) AND (c.b = 'y') AND (c.c = 7)")
	miss := MustParse("(c.a = 25) AND (c.b = 'y')")
	n := testing.AllocsPerRun(1000, func() {
		if !sub.Overlaps(hit) || sub.Overlaps(miss) {
			t.Fatal("wrong overlap answer")
		}
	})
	if n != 0 {
		t.Errorf("Set.Overlaps allocates %.0f per call, want 0", n)
	}
}
