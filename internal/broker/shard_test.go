package broker

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/transport"
)

func TestNormalizeShards(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{8, 8}, {9, 16}, {100, 128}, {1024, 1024}, {5000, 1024},
	}
	for _, c := range cases {
		if got := NewShardedRepository(c.in).Shards(); got != c.want {
			t.Errorf("NewShardedRepository(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

// shardPopulation builds a deterministic advertisement mix large enough
// to land on every shard of an 8-way repository: the matcher fixture's
// semantically diverse ads plus generated resources over several
// classes, languages, and constraint buckets.
func shardPopulation(t *testing.T) []*ontology.Advertisement {
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
// identically across shard counts, and Generation is monotonic across
// mutations on any shard.
func TestShardedRepositoryBasicOps(t *testing.T) {
	ads := shardPopulation(t)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			r := NewShardedRepository(shards)
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
}

// TestShardedMatchesByteIdenticalToFlat is the acceptance differential:
// for the full query battery, a sharded repository must return exactly
// the result a flat one does — same ads, same order, same bytes —
// through the uncached matcher, through the per-shard cache cold and
// warm, and again after mutations.
func TestShardedMatchesByteIdenticalToFlat(t *testing.T) {
	ads := shardPopulation(t)
	w := matcherWorld()

	flat := NewRepository()
	sharded := NewShardedRepository(8)
	fillRepo(t, flat, ads)
	fillRepo(t, sharded, ads)

	reference := &DirectMatcher{World: w}
	direct := &DirectMatcher{World: w}
	cached := NewCachedMatcher(&DirectMatcher{World: w}, 0)

	check := func(stage string) {
		t.Helper()
		for qi, q := range matcherQueries() {
			want, err := reference.Match(flat, q)
			if err != nil {
				t.Fatalf("%s query %d: flat: %v", stage, qi, err)
			}
			for pass := 0; pass < 2; pass++ { // pass 1 exercises the warm cache
				got, err := cached.Match(sharded, q)
				if err != nil {
					t.Fatalf("%s query %d: sharded cached: %v", stage, qi, err)
				}
				assertSameMatches(t, stage, qi, want, got)
			}
			got, err := direct.Match(sharded, q)
			if err != nil {
				t.Fatalf("%s query %d: sharded direct: %v", stage, qi, err)
			}
			assertSameMatches(t, stage, qi, want, got)
		}
	}
	check("initial")

	// Mutate both repositories identically — updates, removals, inserts
	// spread across shards — and re-verify, including warm-cache reuse of
	// the unmutated shards' partials.
	for i := 0; i < 40; i += 3 {
		name := fmt.Sprintf("gen-%03d", i)
		flat.Remove(name)
		sharded.Remove(name)
	}
	for i := 0; i < 20; i++ {
		ad := resourceAd(fmt.Sprintf("post-%03d", i), fmt.Sprintf("C%d", i%6+1))
		if err := flat.Put(ad); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Put(ad); err != nil {
			t.Fatal(err)
		}
	}
	check("after-mutations")
}

func assertSameMatches(t *testing.T, stage string, qi int, want, got []*ontology.Advertisement) {
	t.Helper()
	if !reflect.DeepEqual(namesOf(want), namesOf(got)) {
		t.Fatalf("%s query %d: flat %v != sharded %v", stage, qi, namesOf(want), namesOf(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s query %d: ad %s differs between flat and sharded", stage, qi, want[i].Name)
		}
	}
}

// TestShardCacheInvalidationScope: a mutation invalidates only the
// mutated shard's cached partial. After warming the cache, one Put must
// cost exactly one per-shard miss (plus one invalidation) on the next
// identical query; every other shard's partial is reused.
func TestShardCacheInvalidationScope(t *testing.T) {
	const shards = 8
	r := NewShardedRepository(shards)
	fillRepo(t, r, shardPopulation(t))
	cached := NewCachedMatcher(&DirectMatcher{World: matcherWorld()}, 0)
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"}}

	if _, err := cached.Match(r, q); err != nil { // cold: all misses
		t.Fatal(err)
	}
	warm := SnapshotShardCacheStats()
	if _, err := cached.Match(r, q); err != nil { // warm: all hits
		t.Fatal(err)
	}
	after := SnapshotShardCacheStats()
	if d := after.Hits - warm.Hits; d != shards {
		t.Fatalf("warm query hit %d shards, want %d", d, shards)
	}
	if d := after.Misses - warm.Misses; d != 0 {
		t.Fatalf("warm query missed %d shards, want 0", d)
	}

	// One Put bumps exactly one shard's generation.
	if err := r.Put(resourceAd("scope-probe", "C2")); err != nil {
		t.Fatal(err)
	}
	before := SnapshotShardCacheStats()
	matches, err := cached.Match(r, q)
	if err != nil {
		t.Fatal(err)
	}
	after = SnapshotShardCacheStats()
	if d := after.Misses - before.Misses; d != 1 {
		t.Fatalf("post-mutation query missed %d shards, want exactly 1 (the mutated shard)", d)
	}
	if d := after.Hits - before.Hits; d != shards-1 {
		t.Fatalf("post-mutation query hit %d shards, want %d (all unmutated shards)", d, shards-1)
	}
	if d := after.Invalidations - before.Invalidations; d != 1 {
		t.Fatalf("post-mutation query invalidated %d partials, want 1", d)
	}
	found := false
	for _, ad := range matches {
		if ad.Name == "scope-probe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("freshly put ad missing from post-mutation result: %v", namesOf(matches))
	}
}

// TestShardCachePeek: Peek reflects what the next Match will see, on
// both the whole-result and per-shard paths, without perturbing the
// cache.
func TestShardCachePeek(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			r := NewShardedRepository(shards)
			fillRepo(t, r, shardPopulation(t))
			cached := NewCachedMatcher(&DirectMatcher{World: matcherWorld()}, 0)
			q := &ontology.Query{Ontology: "generic", Classes: []string{"C3"}}

			if hit, _ := cached.Peek(r, q); hit {
				t.Fatal("Peek reported a hit on a cold cache")
			}
			if _, err := cached.Match(r, q); err != nil {
				t.Fatal(err)
			}
			hit, gen := cached.Peek(r, q)
			if !hit {
				t.Fatal("Peek reported a miss on a warm cache")
			}
			if gen != r.Generation() {
				t.Fatalf("Peek gen = %d, want %d", gen, r.Generation())
			}
			if err := r.Put(resourceAd("peek-probe", "C3")); err != nil {
				t.Fatal(err)
			}
			if hit, _ := cached.Peek(r, q); hit {
				t.Fatal("Peek reported a hit after a mutation")
			}
		})
	}
}

// TestDatalogOnShardedRepository: an engine that cannot match per shard
// (the DatalogMatcher) must still be correct on a sharded repository —
// the cache falls back to whole-result memoization under the global
// generation, and results agree with the direct matcher on a flat
// repository.
func TestDatalogOnShardedRepository(t *testing.T) {
	ads := shardPopulation(t)
	w := matcherWorld()
	flat := NewRepository()
	sharded := NewShardedRepository(8)
	fillRepo(t, flat, ads)
	fillRepo(t, sharded, ads)
	reference := &DirectMatcher{World: w}
	cachedDL := NewCachedMatcher(&DatalogMatcher{World: w}, 0)
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"}}

	want, err := reference.Match(flat, q)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := cachedDL.Match(sharded, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "datalog", pass, want, got)
	}
	// A mutation anywhere invalidates the whole-result entry (global
	// generation), so the fallback path also never serves stale data.
	if err := sharded.Put(resourceAd("dl-probe", "C2")); err != nil {
		t.Fatal(err)
	}
	got, err := cachedDL.Match(sharded, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ad := range got {
		if ad.Name == "dl-probe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("datalog fallback cache served stale data: %v", namesOf(got))
	}
}

// TestSnapshotMemoized: between mutations, snapshot() returns the same
// backing slice (no re-collect, no re-sort); any mutation produces a
// fresh, still-sorted snapshot.
func TestSnapshotMemoized(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			r := NewShardedRepository(shards)
			fillRepo(t, r, shardPopulation(t))
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
}

// TestConcurrentShardMutationVsCachedSearch is the sharded cache-
// coherence stress test (satellite of ISSUE 9, run under -race in CI):
// mutations on several shards interleave with cached searches through a
// multi-shard broker, and
//
//   - no search ever observes a half-applied mutation (every returned
//     snapshot ad is internally consistent, and the anchor population is
//     always complete);
//   - cached results never predate a completed mutation on the mutated
//     shard (a search issued after Put/Remove returns must see it, even
//     though the other shards' partials are served from cache).
func TestConcurrentShardMutationVsCachedSearch(t *testing.T) {
	tr := transport.NewInProc()
	b, err := New(Config{
		Name:             "B1",
		Transport:        tr,
		World:            matcherWorld(),
		RepositoryShards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Repository().Shards(); got != 8 {
		t.Fatalf("broker repository has %d shards, want 8", got)
	}
	const anchors = 24 // spread across shards by name hash
	for i := 0; i < anchors; i++ {
		if err := b.Repository().Put(resourceAd(fmt.Sprintf("anchor-%02d", i), "C2")); err != nil {
			t.Fatal(err)
		}
	}
	q := &ontology.Query{Type: ontology.TypeResource, Ontology: "generic", Classes: []string{"C2"}}
	search := func() []*ontology.Advertisement {
		reply, err := b.Search(context.Background(), &kqml.BrokerQuery{Query: q.Clone()})
		if err != nil {
			t.Error(err)
			return nil
		}
		return reply.Matches
	}
	has := func(matches []*ontology.Advertisement, name string) bool {
		for _, ad := range matches {
			if ad.Name == name {
				return true
			}
		}
		return false
	}

	const (
		readers  = 4
		mutators = 3 // each owns one flapper name → flaps land on ≥2 distinct shards w.h.p.
		rounds   = 120
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				matches := search()
				seen := 0
				for _, ad := range matches {
					if ad.Type != ontology.TypeResource || len(ad.Content) == 0 || ad.Content[0].Ontology == "" {
						t.Errorf("half-applied or corrupted snapshot ad: %+v", ad)
						return
					}
					if len(ad.Name) > 6 && ad.Name[:6] == "anchor" {
						seen++
					}
				}
				if seen < anchors {
					t.Errorf("search returned %d anchors, want %d: %v", seen, anchors, namesOf(matches))
					return
				}
			}
		}()
	}

	var mwg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		mwg.Add(1)
		go func(m int) {
			defer mwg.Done()
			name := fmt.Sprintf("flapper-%d", m)
			for i := 0; i < rounds; i++ {
				flapper := resourceAd(name, "C2")
				if i%2 == 0 {
					flapper.Capabilities = []string{ontology.CapSelect}
				}
				if err := b.Repository().Put(flapper); err != nil {
					t.Error(err)
					return
				}
				if res := search(); !has(res, name) {
					t.Errorf("round %d: stale shard cache: %s missing right after Put", i, name)
					return
				}
				if !b.Repository().Remove(name) {
					t.Errorf("round %d: %s vanished", i, name)
					return
				}
				if res := search(); has(res, name) {
					t.Errorf("round %d: stale shard cache: %s still recommended right after Remove", i, name)
					return
				}
			}
		}(m)
	}
	mwg.Wait()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkShardDispatch measures routing an operation to its shard. On
// the single-shard fast path it must add zero allocations, so the default
// flat configuration pays nothing for the sharding machinery
// (TestShardDispatchAllocs).
func BenchmarkShardDispatch(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			op := shardDispatchOp(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// shardDispatchOp fills an n-shard repository and returns one name lookup
// plus one generation read.
func shardDispatchOp(tb testing.TB, n int) func() {
	r := NewShardedRepository(n)
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
