package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/transport"
)

// countingMatcher wraps a Matcher and counts how many times the inner
// engine actually ran — the cache's effectiveness measure.
type countingMatcher struct {
	inner Matcher
	calls atomic.Int64
}

func (m *countingMatcher) Match(repo *Repository, q *ontology.Query) ([]*ontology.Advertisement, error) {
	m.calls.Add(1)
	return m.inner.Match(repo, q)
}

func cacheFixture(t *testing.T) (*Repository, *countingMatcher, *CachedMatcher) {
	t.Helper()
	repo := matcherFixture(t)
	counting := &countingMatcher{inner: &DirectMatcher{World: matcherWorld()}}
	return repo, counting, NewCachedMatcher(counting, 0)
}

func TestCachedMatcherHitsOnRepeat(t *testing.T) {
	repo, counting, cached := cacheFixture(t)
	q := &ontology.Query{Ontology: "generic", Classes: []string{"C2"}}
	first, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != 1 {
		t.Errorf("inner matcher ran %d times for an identical repeat, want 1", counting.calls.Load())
	}
	n1, n2 := namesOf(first), namesOf(second)
	if fmt.Sprint(n1) != fmt.Sprint(n2) {
		t.Errorf("cached result %v != fresh result %v", n2, n1)
	}
}

func TestCachedMatcherInvalidatesOnPut(t *testing.T) {
	repo, counting, cached := cacheFixture(t)
	q := &ontology.Query{Ontology: "generic", Classes: []string{"C2"}}
	if _, err := cached.Match(repo, q); err != nil {
		t.Fatal(err)
	}
	// A new matching advertisement must appear in the very next search.
	if err := repo.Put(resourceAd("ra-new", "C2")); err != nil {
		t.Fatal(err)
	}
	matches, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != 2 {
		t.Errorf("inner matcher ran %d times across an invalidation, want 2", counting.calls.Load())
	}
	found := false
	for _, ad := range matches {
		if ad.Name == "ra-new" {
			found = true
		}
	}
	if !found {
		t.Errorf("post-Put search missed the new ad: %v", namesOf(matches))
	}
}

func TestCachedMatcherInvalidatesOnRemove(t *testing.T) {
	repo, _, cached := cacheFixture(t)
	q := &ontology.Query{Ontology: "generic", Classes: []string{"C2"}}
	before, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Remove("ra-subclass") {
		t.Fatal("fixture ad ra-subclass missing")
	}
	after, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)-1 {
		t.Errorf("after Remove: %v (before: %v)", namesOf(after), namesOf(before))
	}
	for _, ad := range after {
		if ad.Name == "ra-subclass" {
			t.Error("stale cache hit: removed ad still recommended")
		}
	}
}

// TestShardCachePeek: Peek reflects what the next Match will see,
// without perturbing the cache. Its one case builds the repository with
// NewShardedRepository(1), the constructor benchmark/ still calls.
func TestShardCachePeek(t *testing.T) {
	t.Run("shards-1", func(t *testing.T) {
		r := NewShardedRepository(1)
		fillRepo(t, r, repoPopulation(t))
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

// TestCanonicalQueryKeyNormalizes: queries that must match identically
// share a cache key regardless of list order and name case.
func TestCanonicalQueryKeyNormalizes(t *testing.T) {
	a := &ontology.Query{
		Ontology:      "Generic",
		Classes:       []string{"C2", "C1"},
		Capabilities:  []string{"join", "select"},
		Conversations: []string{"ask-all"},
	}
	b := &ontology.Query{
		Ontology:      "generic",
		Classes:       []string{"C1", "C2"},
		Capabilities:  []string{"Select", "Join"},
		Conversations: []string{"Ask-All"},
	}
	if canonicalQuery(a) != canonicalQuery(b) {
		t.Errorf("equivalent queries got distinct keys:\n%s\n%s", canonicalQuery(a), canonicalQuery(b))
	}
	c := &ontology.Query{Ontology: "generic", Classes: []string{"C1"}}
	if canonicalQuery(a) == canonicalQuery(c) {
		t.Error("distinct queries share a key")
	}
}

// TestCanonicalQueryKeyDistinguishesConstraints: constraint differences
// must produce distinct keys.
func TestCanonicalQueryKeyDistinguishesConstraints(t *testing.T) {
	a := &ontology.Query{Ontology: "generic", Constraints: constraint.MustParse("C2.a between 1 and 10")}
	b := &ontology.Query{Ontology: "generic", Constraints: constraint.MustParse("C2.a between 1 and 20")}
	if canonicalQuery(a) == canonicalQuery(b) {
		t.Error("different constraints share a key")
	}
}

// TestCachedMatcherLRUBound: the cache must not grow past its capacity.
func TestCachedMatcherLRUBound(t *testing.T) {
	repo := matcherFixture(t)
	cached := NewCachedMatcher(&DirectMatcher{World: matcherWorld()}, 4)
	for i := 0; i < 20; i++ {
		q := &ontology.Query{Ontology: "generic", Slots: []string{fmt.Sprintf("s%d", i)}}
		if _, err := cached.Match(repo, q); err != nil {
			t.Fatal(err)
		}
	}
	if n := cached.Len(); n > 4 {
		t.Errorf("cache holds %d entries, want <= 4", n)
	}
}

// TestCachedMatcherSingleflight: concurrent identical queries must not
// each run the engine. With a gate holding the first computation open,
// every waiter shares that one run.
func TestCachedMatcherSingleflight(t *testing.T) {
	repo := matcherFixture(t)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	blocking := &gatedMatcher{
		inner: &DirectMatcher{World: matcherWorld()},
		before: func() {
			once.Do(func() { close(entered) })
			<-gate
		},
	}
	cached := NewCachedMatcher(blocking, 0)
	q := &ontology.Query{Ontology: "generic", Classes: []string{"C2"}}

	const waiters = 8
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cached.Match(repo, q)
			errs <- err
		}()
	}
	<-entered   // one goroutine is inside the engine
	close(gate) // release it; the rest must share
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := blocking.calls.Load(); n != 1 {
		t.Errorf("engine ran %d times for %d concurrent identical queries, want 1", n, waiters)
	}
}

// gatedMatcher blocks inside Match until released, to hold a
// singleflight open.
type gatedMatcher struct {
	inner  Matcher
	before func()
	calls  atomic.Int64
}

func (m *gatedMatcher) Match(repo *Repository, q *ontology.Query) ([]*ontology.Advertisement, error) {
	m.calls.Add(1)
	if m.before != nil {
		m.before()
	}
	return m.inner.Match(repo, q)
}

// TestCachedMatcherResultIsolation: mutating the returned slice (reorder,
// truncate — what the broker's merge path does) must not corrupt the
// cached copy.
func TestCachedMatcherResultIsolation(t *testing.T) {
	repo, _, cached := cacheFixture(t)
	q := &ontology.Query{Ontology: "generic"}
	first, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 {
		t.Fatalf("fixture too small: %v", namesOf(first))
	}
	want := fmt.Sprint(namesOf(first))
	// Reverse the caller's slice in place.
	for i, j := 0, len(first)-1; i < j; i, j = i+1, j-1 {
		first[i], first[j] = first[j], first[i]
	}
	second, err := cached.Match(repo, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(namesOf(second)); got != want {
		t.Errorf("cache corrupted by caller mutation: %s != %s", got, want)
	}
}

// TestBrokerDisableMatchCache: by default the broker fronts its engine
// with the cache; the knob restores engine-per-query behavior (the
// Section 5 modeling mode), and the metrics label reflects the inner
// engine either way.
func TestBrokerDisableMatchCache(t *testing.T) {
	tr := transport.NewInProc()
	cachedBroker, err := New(Config{Name: "B1", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cachedBroker.matcher.(*CachedMatcher); !ok {
		t.Errorf("default matcher is %T, want *CachedMatcher", cachedBroker.matcher)
	}
	if got := matcherLabel(cachedBroker.matcher); got != "direct" {
		t.Errorf("matcher label through the cache = %q, want \"direct\"", got)
	}

	plainBroker, err := New(Config{Name: "B2", Transport: tr, DisableMatchCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plainBroker.matcher.(*DirectMatcher); !ok {
		t.Errorf("cache-disabled matcher is %T, want *DirectMatcher", plainBroker.matcher)
	}
}
