package broker

import (
	"fmt"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
)

// repoPopulation builds a deterministic advertisement mix: the matcher
// fixture's semantically diverse ads plus generated resources over
// several classes, languages, and constraint buckets.
func repoPopulation(t *testing.T) []*ontology.Advertisement {
	ads := matcherFixture(t).All()
	for i := 0; i < 160; i++ {
		ad := resourceAd(fmt.Sprintf("gen-%03d", i), fmt.Sprintf("C%d", i%6+1))
		if i%3 == 0 {
			ad.ContentLanguages = []string{ontology.LangOQL}
		}
		if i%4 == 0 {
			ad.Content[0].Constraints = constraint.MustParse(
				fmt.Sprintf("%s.a between %d and %d", ad.Content[0].Classes[0], i*5, i*5+50))
		}
		ads = append(ads, ad)
	}
	return ads
}

func fillRepo(t testing.TB, r *Repository, ads []*ontology.Advertisement) {
	for _, ad := range ads {
		if err := r.Put(ad); err != nil {
			t.Fatalf("putting %s: %v", ad.Name, err)
		}
	}
}

// TestShardedRepositoryBasicOps: Put/Get/Remove/Contains/Len/Names work
// over a populated repository, and Generation advances on every mutation.
// Its one case builds the repository with NewShardedRepository(1), the
// constructor benchmark/ still calls.
func TestShardedRepositoryBasicOps(t *testing.T) {
	t.Run("shards-1", func(t *testing.T) {
		ads := repoPopulation(t)
		r := NewShardedRepository(1)
		lastGen := r.Generation()
		fillRepo(t, r, ads)
		if r.Len() != len(ads) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(ads))
		}
		if g := r.Generation(); g <= lastGen {
			t.Fatalf("generation did not advance: %d", g)
		} else {
			lastGen = g
		}
		for _, ad := range ads {
			if !r.Contains(ad.Name) {
				t.Fatalf("Contains(%q) = false after Put", ad.Name)
			}
			got, ok := r.Get(ad.Name)
			if !ok || got.Name != ad.Name {
				t.Fatalf("Get(%q) = %v, %v", ad.Name, got, ok)
			}
		}
		names := r.Names()
		if len(names) != len(ads) {
			t.Fatalf("Names() returned %d, want %d", len(names), len(ads))
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("Names() not sorted at %d: %q >= %q", i, names[i-1], names[i])
			}
		}
		// Remove half; generation keeps climbing, lookups stay exact.
		for i, ad := range ads {
			if i%2 == 0 {
				if !r.Remove(ad.Name) {
					t.Fatalf("Remove(%q) = false", ad.Name)
				}
				if g := r.Generation(); g <= lastGen {
					t.Fatalf("generation did not advance on Remove: %d", g)
				} else {
					lastGen = g
				}
			}
		}
		for i, ad := range ads {
			if got := r.Contains(ad.Name); got != (i%2 != 0) {
				t.Fatalf("Contains(%q) = %v after selective removal", ad.Name, got)
			}
		}
	})
}

// TestSnapshotMemoized: between mutations, snapshot() returns the same
// backing slice (no re-collect, no re-sort); any mutation produces a
// fresh, still-sorted snapshot. Its one case builds the repository with
// NewShardedRepository(1), the constructor benchmark/ still calls.
func TestSnapshotMemoized(t *testing.T) {
	t.Run("shards-1", func(t *testing.T) {
		r := NewShardedRepository(1)
		fillRepo(t, r, repoPopulation(t))
		s1 := r.snapshot()
		s2 := r.snapshot()
		if len(s1) == 0 || &s1[0] != &s2[0] {
			t.Fatal("snapshot was rebuilt between mutations")
		}
		if err := r.Put(resourceAd("snap-probe", "C1")); err != nil {
			t.Fatal(err)
		}
		s3 := r.snapshot()
		if len(s3) != len(s1)+1 {
			t.Fatalf("post-mutation snapshot has %d ads, want %d", len(s3), len(s1)+1)
		}
		for i := 1; i < len(s3); i++ {
			if s3[i-1].Name >= s3[i].Name {
				t.Fatalf("post-mutation snapshot not sorted at %d", i)
			}
		}
		if s4 := r.snapshot(); &s3[0] != &s4[0] {
			t.Fatal("post-mutation snapshot not memoized")
		}
	})
}

// BenchmarkRepositoryLookup measures one name lookup plus one generation
// read, which must allocate nothing (TestRepositoryLookupAllocs).
func BenchmarkRepositoryLookup(b *testing.B) {
	op := repositoryLookupOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// repositoryLookupOp fills a repository and returns one name lookup plus
// one generation read.
func repositoryLookupOp(tb testing.TB) func() {
	r := NewRepository()
	for i := 0; i < 64; i++ {
		if err := r.Put(resourceAd(fmt.Sprintf("agent-%02d", i), "C2")); err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		if !r.Contains("agent-07") {
			tb.Fatal("missing")
		}
		if r.Generation() == 0 {
			tb.Fatal("generation")
		}
	}
}

// BenchmarkCandidatesIntersection guards the satellite fix sizing the
// intersection output by the post-intersection estimate: a query whose
// index sets are individually large but jointly tiny should allocate a
// small result slice, not one sized to the smallest whole set.
func BenchmarkCandidatesIntersection(b *testing.B) {
	r := NewRepository()
	// 600 resources in "generic", 600 query agents in "healthcare"
	// speaking SQL2, and 8 ads in the three-way intersection: resource +
	// generic + OQL.
	for i := 0; i < 600; i++ {
		if err := r.Put(resourceAd(fmt.Sprintf("res-%03d", i), "C2")); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		ad := resourceAd(fmt.Sprintf("hc-%03d", i), "patient")
		ad.Type = ontology.TypeQuery
		ad.Content[0].Ontology = "healthcare"
		if err := r.Put(ad); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		ad := resourceAd(fmt.Sprintf("oql-%02d", i), "C3")
		ad.ContentLanguages = []string{ontology.LangOQL}
		if err := r.Put(ad); err != nil {
			b.Fatal(err)
		}
	}
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", ContentLanguage: ontology.LangOQL}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.candidates(nil, q); len(got) != 8 {
			b.Fatalf("candidates = %d, want 8", len(got))
		}
	}
}
