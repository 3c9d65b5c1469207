package broker

import (
	"slices"

	"infosleuth/internal/ontology"
)

// Matcher decides which advertisements in a repository satisfy a query.
// Two implementations exist: the direct (compiled) matcher, and the
// LDL-style Datalog matcher mirroring the original broker's rule-based
// reasoning engine. They implement the same relation and are cross-checked
// in tests.
type Matcher interface {
	// Match returns the matching advertisements, best semantic match
	// first (ties broken by name for determinism). The returned ads are
	// the repository's immutable snapshots, shared with other callers:
	// they must be treated as read-only. Reordering or truncating the
	// returned slice is fine; mutating an Advertisement through it is
	// not.
	Match(repo *Repository, q *ontology.Query) ([]*ontology.Advertisement, error)
}

// DirectMatcher evaluates ontology.Match over the repository's index-
// narrowed candidates.
type DirectMatcher struct {
	World *ontology.World
}

// Match implements Matcher. The result is what the match cache stores,
// so it grows by append and is clipped: sized to the candidates, a
// one-match result would pin a backing array as long as the whole
// ontology set for as long as it stayed cached.
func (m *DirectMatcher) Match(repo *Repository, q *ontology.Query) ([]*ontology.Advertisement, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var out []*ontology.Advertisement
	for _, ad := range repo.candidates(m.World, q) {
		if ontology.Match(m.World, ad, q) == ontology.Matched {
			out = append(out, ad)
		}
	}
	out = slices.Clip(out)
	ontology.RankMatches(m.World, out, q)
	return out, nil
}

// mergeMatches unions match lists from several brokers, eliminating
// duplicate agents by name (the paper: the initiating broker "combines
// them with its own list of providing agents, eliminating duplicated
// entries") and re-ranking the union. Duplicates are eliminated after
// ranking, so when two brokers return different copies of the same agent
// (one stale, one freshly re-advertised with narrower content) the
// highest-ranked copy survives rather than whichever list happened to be
// merged first.
func mergeMatches(w *ontology.World, q *ontology.Query, lists ...[]*ontology.Advertisement) []*ontology.Advertisement {
	n := 0
	for _, list := range lists {
		n += len(list)
	}
	all := make([]*ontology.Advertisement, 0, n)
	for _, list := range lists {
		all = append(all, list...)
	}
	ontology.RankMatches(w, all, q)
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, ad := range all {
		key := adKey(ad.Name)
		if !seen[key] {
			seen[key] = true
			out = append(out, ad)
		}
	}
	return out
}
