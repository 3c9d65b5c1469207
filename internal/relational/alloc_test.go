//go:build !race

package relational

import (
	"fmt"
	"testing"
)

// TestScanAllocs: a scan hands each stored row to its callback without
// copying it, so scanning 1,000 rows allocates nothing at all.
// Not under -race, like every allocation ceiling in the repository.
func TestScanAllocs(t *testing.T) {
	tbl := MustNewTable(Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: TypeString}, {Name: "v", Type: TypeNumber}},
		Key:     "id",
	})
	for i := 0; i < 1000; i++ {
		tbl.MustInsert(Row{Str(fmt.Sprintf("k%04d", i)), Num(float64(i))})
	}
	var sum float64
	n := testing.AllocsPerRun(100, func() {
		tbl.Scan(func(r Row) bool {
			sum += r[1].Number()
			return true
		})
	})
	if n != 0 {
		t.Errorf("a 1,000-row scan allocates %.0f, want 0", n)
	}
}
