// Package broker implements the InfoSleuth broker agent: a repository of
// agent advertisements, a matchmaker combining syntactic and semantic
// reasoning (Section 2), and the peer-to-peer multibroker protocol of
// Sections 3-4 — redundant advertising, agent liveness pings, and
// inter-broker search with hop counts, follow options and visited lists.
package broker

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
)

// classKey names one posting. The ontology is lower-cased, as byOntology
// keys are; class names are matched exactly, as Fragment.HasClass and
// Ontology.IsSubclassOf match them.
type classKey struct {
	typ      ontology.AgentType
	ontology string
	class    string
}

// Repository stores advertisements with secondary indexes on what service
// queries select on, so matchmaking runs the full semantic match over a
// handful of advertisements instead of the repository. It is safe for
// concurrent use.
//
// A query that names classes is answered from the class postings: the
// repository posts an advertisement under every (type, ontology, class) it
// serves, and inside a posting a constraint.RegionIndex keeps the numeric
// hull of the ad's constraints per field. A probe unions the postings of
// the class and of its subclasses, stabbing each with the query's most
// selective range, in O(log n + answers). A query without classes
// intersects the type, ontology and content-language sets.
//
// The soundness rule is superset, then Match: candidates may return
// advertisements that do not match (the hull treats open bounds as
// closed, spans all of an ad's fragments on the ontology, and only one
// class and one atom of the query are probed), but never omits one that
// does, and ontology.Match decides. Every way to widen is therefore safe
// and every way to narrow has to be argued; the generated differential
// test in index_test.go holds the index to a full scan.
//
// Stored advertisements are immutable snapshots: Put clones its argument
// once (the advertise handler hands over the ad it just decoded instead),
// and nothing mutates an entry afterwards — an update Puts a fresh
// clone under the same key. Internal readers (candidates, snapshot) hand
// out the stored pointers directly under a read-only contract, which is
// what lets the matchmaking hot path skip per-match cloning; the exported
// Get/All still clone for callers outside the package's control.
type Repository struct {
	mu  sync.RWMutex
	ads map[string]*ontology.Advertisement // by lower-cased agent name

	// gen counts mutations (Put/Remove). The match cache stamps results
	// with the generation they were computed at.
	gen atomic.Uint64

	// Secondary indexes: value → set of agent keys.
	byType     map[ontology.AgentType]map[string]bool
	byOntology map[string]map[string]bool
	byLanguage map[string]map[string]bool

	// byClass posts each agent key under every (type, ontology, class) it
	// serves; inside a posting the keys are indexed by the numeric hull
	// of the ad's constraints, so a class query with a range costs what
	// it returns. A posting is deleted when its last key goes.
	byClass map[classKey]*constraint.RegionIndex[string]

	// indexed can be disabled to measure the index benefit
	// (BenchmarkRepositoryIndexes).
	indexed bool

	// snapshot memo: the sorted snapshot is recomputed only when the
	// generation moved (the DatalogMatcher and Names/All call snapshot
	// per operation, and used to pay a full sort every time even when
	// nothing changed).
	snapMu  sync.Mutex
	snapGen uint64
	snap    []*ontology.Advertisement // nil = no memo

	// changed, when set, is called after every Put and Remove that
	// advances the generation, outside the lock, with the advertisement
	// the change replaced or removed (nil for none) and the one it stored
	// (nil for a removal). The broker publishes located-set invalidations
	// from it. Set before the repository is shared.
	changed func(old, ad *ontology.Advertisement)
}

// NewRepository returns an empty, indexed repository.
func NewRepository() *Repository {
	return &Repository{
		ads:        make(map[string]*ontology.Advertisement),
		byType:     make(map[ontology.AgentType]map[string]bool),
		byOntology: make(map[string]map[string]bool),
		byLanguage: make(map[string]map[string]bool),
		byClass:    make(map[classKey]*constraint.RegionIndex[string]),
		indexed:    true,
	}
}

// NewShardedRepository returns NewRepository(); n is ignored.
//
// Deprecated: the sharded repository lost to the flat one at every size
// once a cache miss became an indexed probe, and was deleted. The name is
// kept only because benchmark/ builds against it.
func NewShardedRepository(n int) *Repository { return NewRepository() }

// NewUnindexedRepository returns a repository that always scans all
// advertisements; only the index-ablation benchmark should want one.
func NewUnindexedRepository() *Repository {
	r := NewRepository()
	r.indexed = false
	return r
}

// Shards returns 1.
//
// Deprecated: the repository is not partitioned. The method is kept only
// because benchmark/ builds against it.
func (r *Repository) Shards() int { return 1 }

func adKey(name string) string { return strings.ToLower(name) }

// Put validates and stores an advertisement, replacing any previous one for
// the same agent (the paper: "when an agent's set of available services
// changes, the agent may update its advertisement").
// It stores a clone: the caller keeps ad.
func (r *Repository) Put(ad *ontology.Advertisement) error {
	if err := checkPut(ad); err != nil {
		return err
	}
	r.store(ad.Clone())
	return nil
}

// own is Put for an advertisement the caller hands over and never
// touches again, such as one just decoded from an advertise frame: the
// repository stores it as it is, without the clone.
func (r *Repository) own(ad *ontology.Advertisement) error {
	if err := checkPut(ad); err != nil {
		return err
	}
	r.store(ad)
	return nil
}

func checkPut(ad *ontology.Advertisement) error {
	if err := ad.Validate(); err != nil {
		return err
	}
	for _, f := range ad.Content {
		if f.Constraints.Unsatisfiable() {
			return fmt.Errorf("broker: advertisement for %q carries unsatisfiable constraints: %s", ad.Name, f.Constraints)
		}
	}
	return nil
}

func (r *Repository) store(ad *ontology.Advertisement) {
	key := adKey(ad.Name)
	r.mu.Lock()
	old := r.ads[key]
	if old != nil {
		r.unindexLocked(key)
	}
	r.ads[key] = ad
	r.indexLocked(key, ad)
	r.gen.Add(1)
	r.mu.Unlock()
	if r.changed != nil {
		r.changed(old, ad)
	}
}

// Remove deletes an agent's advertisement; it reports whether one existed.
func (r *Repository) Remove(name string) bool {
	key := adKey(name)
	r.mu.Lock()
	old := r.ads[key]
	if old == nil {
		r.mu.Unlock()
		return false
	}
	r.unindexLocked(key)
	delete(r.ads, key)
	r.gen.Add(1)
	r.mu.Unlock()
	if r.changed != nil {
		r.changed(old, nil)
	}
	return true
}

// Generation returns the repository's mutation counter. It increments
// before Put/Remove return and never decreases, so any result computed
// from a generation read before a mutation cannot be served as current
// afterwards — the match cache's invalidation signal.
func (r *Repository) Generation() uint64 { return r.gen.Load() }

// Get returns a copy of an agent's advertisement.
func (r *Repository) Get(name string) (*ontology.Advertisement, bool) {
	key := adKey(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	ad, ok := r.ads[key]
	if !ok {
		return nil, false
	}
	return ad.Clone(), true
}

// Contains reports whether the agent is advertised.
func (r *Repository) Contains(name string) bool {
	key := adKey(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.ads[key]
	return ok
}

// Len returns the number of stored advertisements.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ads)
}

// LenNonBroker returns the number of stored non-broker advertisements —
// the size of the space the matchmaker reasons over for service queries
// (peer-broker entries are routing state, not candidates).
func (r *Repository) LenNonBroker() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ads) - len(r.byType[ontology.TypeBroker])
}

// agentTypes returns the types of the stored advertisements, sorted: the
// broker's specialization by agent type in its own advertisement. It reads
// the type sets, so an advertise reply costs the number of types and not a
// sorted snapshot of the repository.
func (r *Repository) agentTypes() []ontology.AgentType {
	var out []ontology.AgentType
	r.mu.RLock()
	for t, keys := range r.byType {
		if len(keys) > 0 {
			out = append(out, t)
		}
	}
	r.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Names returns the advertised agent names, sorted. It reads through the
// memoized snapshot, so repeated calls between mutations pay no sort.
func (r *Repository) Names() []string {
	ads := r.snapshot()
	out := make([]string, len(ads))
	for i, ad := range ads {
		out[i] = ad.Name
	}
	return out
}

// All returns copies of every advertisement, sorted by name.
func (r *Repository) All() []*ontology.Advertisement {
	ads := r.snapshot()
	out := make([]*ontology.Advertisement, len(ads))
	for i, ad := range ads {
		out[i] = ad.Clone()
	}
	return out
}

func (r *Repository) indexLocked(key string, ad *ontology.Advertisement) {
	addTo := func(m map[string]map[string]bool, val string) {
		val = strings.ToLower(val)
		set, ok := m[val]
		if !ok {
			set = make(map[string]bool)
			m[val] = set
		}
		set[key] = true
	}
	set, ok := r.byType[ad.Type]
	if !ok {
		set = make(map[string]bool)
		r.byType[ad.Type] = set
	}
	set[key] = true
	for _, f := range ad.Content {
		addTo(r.byOntology, f.Ontology)
	}
	for _, l := range ad.ContentLanguages {
		addTo(r.byLanguage, l)
	}
	eachClassPosting(ad, func(k classKey, regions []*constraint.Set) {
		p := r.byClass[k]
		if p == nil {
			p = constraint.NewRegionIndex[string]()
			r.byClass[k] = p
		}
		p.Add(key, regions)
	})
}

func (r *Repository) unindexLocked(key string) {
	ad := r.ads[key]
	if ad == nil {
		return
	}
	delete(r.byType[ad.Type], key)
	for _, f := range ad.Content {
		delete(r.byOntology[strings.ToLower(f.Ontology)], key)
	}
	for _, l := range ad.ContentLanguages {
		delete(r.byLanguage[strings.ToLower(l)], key)
	}
	eachClassPosting(ad, func(k classKey, regions []*constraint.Set) {
		p := r.byClass[k]
		if p.Remove(key, regions); p.Len() == 0 {
			delete(r.byClass, k)
		}
	})
}

// eachClassPosting calls fn once for every posting the advertisement
// belongs under, with the regions it is indexed by there. ontology.Match
// accepts an ad when any of its fragments on the query's ontology
// overlaps the query, not only the fragment serving the class, so the
// regions are the constraints of all of them. Stored ads are immutable,
// so unindexing walks exactly what indexing walked.
func eachClassPosting(ad *ontology.Advertisement, fn func(k classKey, regions []*constraint.Set)) {
	var seenBuf [4]classKey
	seen := seenBuf[:0]
	for i := range ad.Content {
		f := &ad.Content[i]
		var regions []*constraint.Set
		for _, class := range f.Classes {
			k := classKey{ad.Type, strings.ToLower(f.Ontology), class}
			if slices.Contains(seen, k) {
				continue
			}
			seen = append(seen, k)
			if regions == nil {
				for j := range ad.Content {
					if g := &ad.Content[j]; strings.EqualFold(g.Ontology, f.Ontology) {
						regions = append(regions, g.Constraints)
					}
				}
			}
			fn(k, regions)
		}
	}
}

// candidates returns a superset of the advertisements matching q: the
// class postings' answer when the query names classes, the type, ontology
// and language sets' intersection otherwise, and everything on an
// unindexed repository. w supplies the subclass hierarchy; nil means none.
// The returned ads are the repository's immutable snapshots: callers must
// not mutate them. The result order is unspecified — every caller re-orders
// deterministically, so candidates does not pay for a sort of its own.
func (r *Repository) candidates(w *ontology.World, q *ontology.Query) []*ontology.Advertisement {
	r.mu.RLock()
	defer r.mu.RUnlock()
	switch {
	case !r.indexed:
		return r.unsortedLocked()
	case q.Ontology != "" && len(q.Classes) > 0:
		return r.classCandidatesLocked(w, q)
	default:
		return r.setCandidatesLocked(q)
	}
}

// rejectionCandidates returns what the type, ontology and language sets
// admit even when the query names classes: the explain walk reports the
// advertisements a query rejected by class or by constraint, which the
// class postings exist to never look at.
func (r *Repository) rejectionCandidates(q *ontology.Query) []*ontology.Advertisement {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.setCandidatesLocked(q)
}

// classCandidatesLocked answers a query that names classes from the class
// postings. ontology.Match requires every query class to be served, by
// the class itself or a subclass, so the postings of any one query class
// and its descendants hold every match; the class with the fewest keys
// posted is probed and the rest are left to Match.
func (r *Repository) classCandidatesLocked(w *ontology.World, q *ontology.Query) []*ontology.Advertisement {
	ont := w.Ontology(q.Ontology)
	oname := strings.ToLower(q.Ontology)
	class := q.Classes[0]
	if len(q.Classes) > 1 {
		fewest := -1
		for _, c := range q.Classes {
			n := 0
			r.eachPostingLocked(q.Type, oname, c, ont, func(p *constraint.RegionIndex[string]) { n += p.Len() })
			if fewest < 0 || n < fewest {
				class, fewest = c, n
			}
		}
	}
	var keys []string
	postings := 0
	r.eachPostingLocked(q.Type, oname, class, ont, func(p *constraint.RegionIndex[string]) {
		keys = p.AppendCandidates(keys, q.Constraints)
		postings++
	})
	if postings > 1 {
		// An ad serving both a class and its subclass is posted under
		// each.
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	out := make([]*ontology.Advertisement, len(keys))
	for i, key := range keys {
		out[i] = r.ads[key]
	}
	return out
}

// eachPostingLocked calls fn with every posting a query for class has to
// look in: the class and its subclasses in ont (nil: no hierarchy), for
// the given agent type or, for TypeAny, for every type the repository holds.
func (r *Repository) eachPostingLocked(typ ontology.AgentType, oname, class string, ont *ontology.Ontology, fn func(*constraint.RegionIndex[string])) {
	expand := func(t ontology.AgentType) {
		if p := r.byClass[classKey{t, oname, class}]; p != nil {
			fn(p)
		}
		if ont == nil {
			return
		}
		for _, sub := range ont.Descendants(class) {
			if p := r.byClass[classKey{t, oname, sub}]; p != nil {
				fn(p)
			}
		}
	}
	if typ != ontology.TypeAny {
		expand(typ)
		return
	}
	for t := range r.byType {
		expand(t)
	}
}

// setCandidatesLocked intersects the type, ontology and language
// sets. The output slice is sized by the post-intersection estimate
// under an independence assumption (|A∩B| ≈ |A|·|B|/N), not by the
// smallest index set — with several index sets the intersection is
// usually far smaller than any one of them, and the old
// len(smallest)-capacity slice wasted most of its backing array.
func (r *Repository) setCandidatesLocked(q *ontology.Query) []*ontology.Advertisement {
	var sets []map[string]bool
	if q.Type != ontology.TypeAny {
		sets = append(sets, r.byType[q.Type])
	}
	if q.Ontology != "" {
		sets = append(sets, r.byOntology[strings.ToLower(q.Ontology)])
	}
	if q.ContentLanguage != "" {
		sets = append(sets, r.byLanguage[strings.ToLower(q.ContentLanguage)])
	}
	if len(sets) == 0 {
		return r.unsortedLocked()
	}
	smallest := sets[0]
	if len(sets) == 1 {
		out := make([]*ontology.Advertisement, 0, len(smallest))
		for key := range smallest {
			out = append(out, r.ads[key])
		}
		return out
	}
	// Intersect starting from the smallest set.
	sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	smallest = sets[0]
	est := intersectionEstimate(sets, len(r.ads))
	out := make([]*ontology.Advertisement, 0, est)
	if len(sets) == 2 {
		// The common two-index case: one direct membership probe per
		// key, no inner loop.
		second := sets[1]
		for key := range smallest {
			if second[key] {
				out = append(out, r.ads[key])
			}
		}
		return out
	}
	rest := sets[1:]
outer:
	for key := range smallest {
		for _, o := range rest {
			if !o[key] {
				continue outer
			}
		}
		out = append(out, r.ads[key])
	}
	return out
}

// intersectionEstimate sizes the candidate slice for a multi-set
// intersection: scale the smallest set by each further set's selectivity
// (independence assumption), floored so tiny estimates don't cause
// append-growth churn and capped at the smallest set (the true upper
// bound).
func intersectionEstimate(sets []map[string]bool, total int) int {
	est := len(sets[0])
	if total > 0 {
		for _, o := range sets[1:] {
			est = est * len(o) / total
		}
	}
	if est < 8 {
		est = 8
	}
	if est > len(sets[0]) {
		est = len(sets[0])
	}
	return est
}

// snapshot returns every stored advertisement as shared immutable
// snapshots, sorted by name. Package-internal: callers must not mutate
// the ads or the slice (the DatalogMatcher's fact-assertion pass,
// Names/All). The sorted slice is memoized per generation: repeated calls
// between mutations return the same slice without re-collecting or
// re-sorting.
func (r *Repository) snapshot() []*ontology.Advertisement {
	gen := r.Generation()
	r.snapMu.Lock()
	if r.snap != nil && r.snapGen == gen {
		out := r.snap
		r.snapMu.Unlock()
		return out
	}
	r.snapMu.Unlock()

	// Collected under the read lock, so the view is a consistent cut and
	// the generation it is stamped with is exact.
	r.mu.RLock()
	gen = r.gen.Load()
	out := r.unsortedLocked()
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })

	r.snapMu.Lock()
	// Another goroutine may have memoized a newer cut meanwhile; keep
	// whichever is stamped later.
	if r.snap == nil || gen >= r.snapGen {
		r.snapGen, r.snap = gen, out
	}
	r.snapMu.Unlock()
	return out
}

func (r *Repository) unsortedLocked() []*ontology.Advertisement {
	out := make([]*ontology.Advertisement, 0, len(r.ads))
	for _, ad := range r.ads {
		out = append(out, ad)
	}
	return out
}
