package broker

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"infosleuth/internal/ontology"
)

// Match caching. A broker serving a steady query stream sees the same
// handful of service queries over and over (the Section 5 workloads
// literally replay fixed query streams), yet every arrival used to re-run
// the full semantic match over the repository. The cache in front of
// Matcher.Match memoizes results keyed on a canonical serialization of
// the query, stamped with the repository generation at compute time.
//
// Any Put/Remove invalidates every entry at once, with no bookkeeping on
// the mutation path beyond one atomic increment.
//
// Concurrent identical computations — the Flood fan-in case, where one
// client query arrives at a broker once directly and again via peers —
// are deduplicated singleflight-style per (query, generation).
//
// The cache deliberately memoizes only the matcher's relation (which ads
// match, in rank order). It does not cache anything per-conversation:
// traced queries still stamp their own spans, counters still count every
// arrival, and hop/policy handling runs per request.

// DefaultMatchCacheCapacity bounds cached distinct queries per broker.
const DefaultMatchCacheCapacity = 256

// matchCacheEntry is one memoized result.
type matchCacheEntry struct {
	key     string
	gen     uint64
	matches []*ontology.Advertisement
}

// matchFlight is one in-progress computation that concurrent identical
// lookups wait on.
type matchFlight struct {
	done    chan struct{}
	matches []*ontology.Advertisement
	err     error
}

// matchCache is a generation-invalidated LRU of match results with
// singleflight deduplication. Safe for concurrent use.
type matchCache struct {
	cap int

	mu      sync.Mutex
	entries map[string]*list.Element // canonical key -> *matchCacheEntry element
	lru     *list.List               // front = most recently used
	flights map[string]*matchFlight  // "key@gen" -> in-progress computation
}

func newMatchCache(capacity int) *matchCache {
	return &matchCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*matchFlight),
	}
}

// lookup returns the cached matches for the key at the given generation.
// An entry stamped with an older generation is dropped (a stale hit must
// never be served after an invalidation).
func (c *matchCache) lookup(key string, gen uint64) ([]*ontology.Advertisement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*matchCacheEntry)
	if e.gen != gen {
		c.lru.Remove(el)
		delete(c.entries, key)
		mMatchCacheInvalidations.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	return e.matches, true
}

// peek reports whether the key is memoized at the generation, with no
// LRU movement, invalidation, or accounting.
func (c *matchCache) peek(key string, gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	return ok && el.Value.(*matchCacheEntry).gen == gen
}

// store memoizes a result, evicting the least recently used entry past
// capacity. The caller holds c.mu.
func (c *matchCache) store(key string, gen uint64, matches []*ontology.Advertisement) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*matchCacheEntry)
		e.gen = gen
		e.matches = matches
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&matchCacheEntry{key: key, gen: gen, matches: matches})
	c.entries[key] = el
	for c.lru.Len() > c.cap {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*matchCacheEntry).key)
		mMatchCacheEvictions.Inc()
	}
	mMatchCacheEntries.Set(float64(c.lru.Len()))
}

// compute runs fn once per (key, generation) across concurrent callers:
// the first arrival computes and stores, the rest wait and share the
// result. shared reports whether this caller piggybacked on another's
// computation. Keying the flight on the generation keeps a
// post-invalidation request from riding a pre-invalidation computation.
//
// A caller gets here after its own lookup missed, in a separate critical
// section, so the leader may have finished in between. The entry is
// therefore checked again under the lock that looks for a flight, and the
// leader stores its result and removes its flight in one critical section:
// at every instant a current result is either in flight or in the cache,
// so the engine runs once. This saves work and nothing else: results are
// stamped with the generation they were computed at, so a second run
// would return the same answer, never a stale one.
func (c *matchCache) compute(key string, gen uint64, fn func() ([]*ontology.Advertisement, error)) (matches []*ontology.Advertisement, shared bool, err error) {
	fkey := key + "@" + strconv.FormatUint(gen, 10)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*matchCacheEntry); e.gen == gen {
			matches = e.matches // read under the lock: store rewrites the entry in place
			c.mu.Unlock()
			return matches, true, nil
		}
	}
	if f, ok := c.flights[fkey]; ok {
		c.mu.Unlock()
		<-f.done
		return f.matches, true, f.err
	}
	f := &matchFlight{done: make(chan struct{})}
	c.flights[fkey] = f
	c.mu.Unlock()

	f.matches, f.err = fn()

	c.mu.Lock()
	delete(c.flights, fkey)
	if f.err == nil {
		c.store(key, gen, f.matches)
	}
	c.mu.Unlock()
	close(f.done)

	if f.err != nil {
		return nil, false, f.err
	}
	return f.matches, false, nil
}

// len reports the resident entry count (tests).
func (c *matchCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CachedMatcher memoizes an inner Matcher's results in a
// generation-invalidated LRU (see the package comment above). It
// implements Matcher and is what Broker installs in front of the
// configured engine unless Config.DisableMatchCache is set.
type CachedMatcher struct {
	// Inner is the matching engine computing misses.
	Inner Matcher
	cache *matchCache
}

// NewCachedMatcher wraps inner with a match cache holding up to capacity
// distinct queries (<= 0 means DefaultMatchCacheCapacity).
func NewCachedMatcher(inner Matcher, capacity int) *CachedMatcher {
	if capacity <= 0 {
		capacity = DefaultMatchCacheCapacity
	}
	return &CachedMatcher{Inner: inner, cache: newMatchCache(capacity)}
}

// Match implements Matcher. Hits return a fresh slice header over the
// memoized (immutable-snapshot) ads, so callers may reorder or truncate
// their result without corrupting the cache.
func (m *CachedMatcher) Match(repo *Repository, q *ontology.Query) ([]*ontology.Advertisement, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	key := canonicalQuery(q)
	// The generation is read before the match runs. If a Put lands in
	// between, the computed result is stamped with the pre-Put
	// generation and the next lookup (seeing the bumped generation)
	// recomputes — conservative, never stale.
	gen := repo.Generation()
	if matches, ok := m.cache.lookup(key, gen); ok {
		mMatchCacheOps.With("hit").Inc()
		return append([]*ontology.Advertisement(nil), matches...), nil
	}
	mMatchCacheOps.With("miss").Inc()
	matches, shared, err := m.cache.compute(key, gen, func() ([]*ontology.Advertisement, error) {
		return m.Inner.Match(repo, q)
	})
	if err != nil {
		return nil, err
	}
	if shared {
		mMatchCacheOps.With("shared").Inc()
	}
	return append([]*ontology.Advertisement(nil), matches...), nil
}

// Len reports the resident cached query count.
func (m *CachedMatcher) Len() int { return m.cache.len() }

// Peek reports whether the query is currently memoized at the
// repository's generation, without serving from the cache: no LRU
// movement, no invalidation, no hit/miss accounting. Decision provenance
// uses it to label match events with the cache outcome the subsequent
// Match call will see.
func (m *CachedMatcher) Peek(repo *Repository, q *ontology.Query) (hit bool, gen uint64) {
	gen = repo.Generation()
	return m.cache.peek(canonicalQuery(q), gen), gen
}

// canonicalQuery serializes the match-relevant fields of a query into a
// deterministic cache key. Two queries that must produce the same match
// result produce the same key: conjunctive requirement lists are sorted
// (their order never affects matching) and case-folded like the matcher
// folds them. Limit and Policy are deliberately excluded — the matcher
// ignores both (the broker applies the limit after merging, and policy
// only steers inter-broker forwarding).
func canonicalQuery(q *ontology.Query) string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString("t=")
	b.WriteString(strings.ToLower(string(q.Type)))
	b.WriteString(";cl=")
	b.WriteString(strings.ToLower(q.ContentLanguage))
	b.WriteString(";al=")
	b.WriteString(strings.ToLower(q.CommLanguage))
	writeSortedList(&b, ";cv=", q.Conversations)
	writeSortedList(&b, ";cap=", q.Capabilities)
	b.WriteString(";o=")
	b.WriteString(strings.ToLower(q.Ontology))
	writeSortedList(&b, ";cls=", q.Classes)
	writeSortedList(&b, ";sl=", q.Slots)
	b.WriteString(";con=")
	if q.Constraints.Len() > 0 {
		// Set.String renders atoms in sorted field order: deterministic.
		b.WriteString(q.Constraints.String())
	}
	b.WriteString(";mr=")
	b.WriteString(strconv.FormatFloat(q.MaxResponseSec, 'g', -1, 64))
	b.WriteString(";mob=")
	switch {
	case q.RequireMobile == nil:
		b.WriteString("any")
	case *q.RequireMobile:
		b.WriteString("y")
	default:
		b.WriteString("n")
	}
	return b.String()
}

// writeSortedList appends a case-folded, sorted rendering of a
// requirement list, so semantically identical queries share a key
// regardless of declaration order.
func writeSortedList(b *strings.Builder, prefix string, vals []string) {
	b.WriteString(prefix)
	if len(vals) == 0 {
		return
	}
	if len(vals) == 1 {
		b.WriteString(strings.ToLower(vals[0]))
		return
	}
	sorted := make([]string, len(vals))
	for i, v := range vals {
		sorted[i] = strings.ToLower(v)
	}
	sort.Strings(sorted)
	for i, v := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v)
	}
}
