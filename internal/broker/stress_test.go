package broker

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/transport"
)

// TestConcurrentMutationVsCachedSearch is the cache-coherence stress
// test (run under -race in CI): repository mutations interleave with
// cached searches, and the cache must never serve a result that predates
// a completed mutation. Concretely:
//
//   - mutators each flap one advertisement (Put, verify present; Remove,
//     verify absent) — each verification searches AFTER the mutation
//     returned, so a hit on a pre-mutation cache entry is a bug;
//   - reader goroutines hammer the same query (maximizing cache traffic
//     and singleflight collisions) and check an invariant that holds at
//     every generation: the anchor ads are always recommended;
//   - everything flows through Broker.Search so the shared snapshot ads
//     cross goroutines exactly as they do in production, letting the
//     race detector see any mutation of a shared Advertisement.
func TestConcurrentMutationVsCachedSearch(t *testing.T) {
	stressMutationVsCachedSearch(t, Config{Name: "B1", Transport: transport.NewInProc(), World: matcherWorld()}, 8)
}

// TestConcurrentShardMutationVsCachedSearch runs the same stress with the
// broker configured as benchmark/'s broker_churn configures its brokers:
// RepositoryShards set, which must still yield the one flat repository,
// and more anchors than the default test.
func TestConcurrentShardMutationVsCachedSearch(t *testing.T) {
	cfg := Config{Name: "B1", Transport: transport.NewInProc(), World: matcherWorld(), RepositoryShards: 8}
	stressMutationVsCachedSearch(t, cfg, 24)
}

func stressMutationVsCachedSearch(t *testing.T, cfg Config, anchors int) {
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Repository().Shards(); got != 1 {
		t.Fatalf("RepositoryShards: %d built a repository reporting %d shards, want 1", cfg.RepositoryShards, got)
	}
	// Anchors are always present; the flappers come and go.
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
		mutators = 3
		rounds   = 120
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers: hammer the cached query, touch every returned ad's fields
	// (so the race detector watches the shared snapshots), and check the
	// generation-independent invariant.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				matches := search()
				seen := 0
				for _, ad := range matches {
					// Read through the shared snapshot's nested fields so
					// the race detector watches them.
					if ad.Type != ontology.TypeResource || len(ad.Content) == 0 || ad.Content[0].Ontology == "" {
						t.Errorf("half-applied or corrupted snapshot ad: %+v", ad)
						return
					}
					if strings.HasPrefix(ad.Name, "anchor") {
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

	// Mutators: each flaps its own ad and verifies the cache tracks every
	// completed mutation immediately, while the others invalidate beside it.
	var mwg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		mwg.Add(1)
		go func(m int) {
			defer mwg.Done()
			name := fmt.Sprintf("flapper-%d", m)
			for i := 0; i < rounds; i++ {
				flapper := resourceAd(name, "C2")
				if i%2 == 0 {
					// Vary the copy so a stale cached snapshot is detectable.
					flapper.Capabilities = []string{ontology.CapSelect}
				}
				if err := b.Repository().Put(flapper); err != nil {
					t.Error(err)
					return
				}
				if res := search(); !has(res, name) {
					t.Errorf("round %d: stale cache: %s missing right after Put: %v", i, name, namesOf(res))
					return
				}
				if !b.Repository().Remove(name) {
					t.Errorf("round %d: %s vanished", i, name)
					return
				}
				if res := search(); has(res, name) {
					t.Errorf("round %d: stale cache: %s still recommended right after Remove", i, name)
					return
				}
			}
		}(m)
	}
	mwg.Wait()
	stop.Store(true)
	wg.Wait()
}
