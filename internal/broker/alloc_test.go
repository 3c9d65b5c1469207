//go:build !race

package broker

import (
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/transport"
)

// Not under -race: the detector makes sync.Pool drop items, so counts mean nothing.
func TestRepositoryLookupAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, repositoryLookupOp(t)); n != 0 {
		t.Errorf("Contains + Generation allocates %.0f per op, want 0", n)
	}
}

// TestIndexedMatchAllocs: an uncached class-and-range match costs what it
// returns. The same ten ads answer the query at 1,000 and at 10,000
// advertisements, so the two must allocate exactly alike. The ceiling is
// the measured cost of one posting probe, 11: the probe's key slice and
// the filtered result, each grown by append to ten (five allocations
// apiece), and the candidate array.
func TestIndexedMatchAllocs(t *testing.T) {
	const ceiling = 11
	m := &DirectMatcher{World: ontology.NewWorld(ontology.Generic())}
	q := churnShapedQuery("C3", 2000, 350)
	var allocs [2]float64
	for i, n := range []int{1_000, 10_000} {
		repo := churnShapedRepository(t, n)
		if got, err := m.Match(repo, q); err != nil || len(got) != 10 {
			t.Fatalf("%d ads: %d matches (%v), want 10", n, len(got), err)
		}
		allocs[i] = testing.AllocsPerRun(50, func() { m.Match(repo, q) })
		if allocs[i] > ceiling {
			t.Errorf("%d ads: an uncached match allocates %.0f, ceiling %d", n, allocs[i], ceiling)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("an uncached match allocates %.0f at 1,000 ads and %.0f at 10,000: it should not depend on repository size", allocs[0], allocs[1])
	}
}

// TestHandleAdvertiseAllocs: the advertise handler stores the ad it just
// decoded from the frame instead of a clone of it. The ceiling is the
// measured cost of one re-advertise of a one-fragment ad on a broker with
// no holders: decoding the frame, storing and indexing the ad, and the
// acknowledgement. Storing a clone instead measured 46.
func TestHandleAdvertiseAllocs(t *testing.T) {
	const ceiling = 39
	b, err := New(Config{Name: "B1", Transport: transport.NewInProc(), World: ontology.NewWorld(ontology.Generic())})
	if err != nil {
		t.Fatal(err)
	}
	ad := &ontology.Advertisement{
		Name: "RA1", Address: "ra1", Type: ontology.TypeResource,
		CommLanguages: []string{ontology.LangKQML}, ContentLanguages: []string{ontology.LangSQL2},
		Content: []ontology.Fragment{{Ontology: "generic", Classes: []string{"C3"},
			Constraints: constraint.MustParse("C3.a between 0 and 999")}},
	}
	msg := kqml.New(kqml.Advertise, "RA1", &kqml.AdvertiseContent{Ad: ad})
	msg.Ontology = kqml.ServiceOntology
	n := testing.AllocsPerRun(100, func() {
		if reply := b.Handle(msg); reply.Performative != kqml.Tell {
			t.Fatalf("advertise refused: %s", kqml.ReasonOf(reply))
		}
	})
	if n > ceiling {
		t.Errorf("an advertise allocates %.0f, ceiling %d", n, ceiling)
	}
}
