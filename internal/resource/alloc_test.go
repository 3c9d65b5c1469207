//go:build !race

package resource

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"infosleuth/internal/ontology"
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

// TestStandingQueryHeapAllocs: a registered standing query keeps at most
// 16 KB of live heap (its index entry, region and hub registration),
// measured GC-settled across the sweep's 10,000 registrations.
func TestStandingQueryHeapAllocs(t *testing.T) {
	const ceiling = 16 << 10
	ra, tr, subAddr := newSweepResource(t)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	subscribeSweep(t, tr, ra, subAddr, rand.New(rand.NewSource(1999)))
	after := liveHeap()
	perSub := 0.0
	if after > before {
		perSub = float64(after-before) / sweepSubs
	}
	t.Logf("%.0f B of heap per standing query", perSub)
	if perSub > ceiling {
		t.Errorf("%.0f B of heap per standing query, ceiling %d", perSub, ceiling)
	}
}

// TestCompilePointQueryAllocs: every query and every standing-query
// re-evaluation compiles its statement, against the one default capability
// lattice: rebuilding the lattice per statement cost 14 more allocations.
func TestCompilePointQueryAllocs(t *testing.T) {
	a, _ := newResource(t)
	const sql = "SELECT id, a FROM C2 WHERE id = 'C2-0007'"
	n := testing.AllocsPerRun(100, func() {
		if _, err := a.compile(ontology.LangSQL2, sql); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compile allocates %.0f per point query", n)
	if n > 25 {
		t.Errorf("compile allocates %.0f per point query, want <= 25", n)
	}
}
