//go:build !race

package resource

import (
	"fmt"
	"testing"

	"infosleuth/internal/relational"
	"infosleuth/internal/sqlparse"
)

// TestResultHashAllocs: digesting a standing query's answer runs on every
// re-evaluation, and allocates nothing.
// Not under -race, like every allocation ceiling in the repository.
func TestResultHashAllocs(t *testing.T) {
	res := &sqlparse.Result{Columns: []string{"id", "a"}}
	for i := 0; i < 100; i++ {
		res.Rows = append(res.Rows, relational.Row{relational.Str(fmt.Sprintf("r%d", i)), relational.Num(float64(i) / 3)})
	}
	if n := testing.AllocsPerRun(100, func() { resultHash(res) }); n != 0 {
		t.Errorf("resultHash allocates %.0f per call, want 0", n)
	}
}
