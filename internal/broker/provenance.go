package broker

import (
	"sort"
	"strings"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/telemetry/provenance"
)

// Decision provenance for the matchmaking path: when a traced search has
// a listener (the flight recorder or a per-request collector), the broker
// walks what the type, ontology and language sets admit (wider than what
// the matcher looked at, so ads rejected by class or by constraint are
// reported) and emits one MatchDecision per candidate — accepted ads with
// their ranking specificity, rejected ads with the first failing check —
// so an explain report can answer "why did agent X (not) serve my query".
// The walk runs only behind the emitter nil-check: untraced searches and
// processes without provenance pay nothing.

// emitMatchProvenance records one MatchDecision per advertisement the
// repository's type, ontology and language sets admit for q.
func (b *Broker) emitMatchProvenance(em *provenance.Emitter, q *ontology.Query, cacheHit bool, gen uint64) {
	cands := b.repo.rejectionCandidates(q)
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	for _, ad := range cands {
		reason := ontology.Match(b.cfg.World, ad, q)
		md := &kqml.MatchDecision{
			Ad:         ad.Name,
			Engine:     b.matcherName,
			Accepted:   reason == ontology.Matched,
			Coverage:   constraintCoverage(ad, q),
			CacheHit:   cacheHit,
			Generation: gen,
		}
		if md.Accepted {
			md.Specificity = ontology.Specificity(b.cfg.World, ad, q)
		} else {
			md.Reason = string(reason)
		}
		em.Emit(kqml.ProvEvent{Kind: kqml.ProvMatch, Agent: b.cfg.Name, Match: md})
	}
}

// constraintCoverage classifies how an advertisement's advertised data
// constraints relate to the query's: "unconstrained" (the query carries
// none), "ad-unconstrained" (the ad advertises none to compare),
// "covered" (the query's constraints cover some advertised fragment —
// the agent holds only relevant data), "overlaps" (some advertised
// range intersects the query's), or "disjoint".
func constraintCoverage(ad *ontology.Advertisement, q *ontology.Query) string {
	if q.Constraints.Len() == 0 {
		return "unconstrained"
	}
	constrained, covered, overlaps := false, false, false
	for i := range ad.Content {
		f := &ad.Content[i]
		if q.Ontology != "" && !strings.EqualFold(f.Ontology, q.Ontology) {
			continue
		}
		if f.Constraints.Len() == 0 {
			continue
		}
		constrained = true
		if f.Constraints.Overlaps(q.Constraints) {
			overlaps = true
		}
		if q.Constraints.Covers(f.Constraints) {
			covered = true
		}
	}
	switch {
	case !constrained:
		return "ad-unconstrained"
	case covered:
		return "covered"
	case overlaps:
		return "overlaps"
	default:
		return "disjoint"
	}
}

// forwardSkip emits a ForwardDecision for a peer the search skipped.
func (b *Broker) forwardSkip(em *provenance.Emitter, peerName, why string) {
	if em == nil {
		return
	}
	em.Emit(kqml.ProvEvent{Kind: kqml.ProvForward, Agent: b.cfg.Name,
		Forward: &kqml.ForwardDecision{Peer: peerName, Skipped: why}})
}

// forwardOutcome emits a ForwardDecision for a peer the search forwarded
// to, with the result (match count or error).
func (b *Broker) forwardOutcome(em *provenance.Emitter, peerName string, matches int, err error) {
	if em == nil {
		return
	}
	fd := &kqml.ForwardDecision{Peer: peerName, Matches: matches}
	if err != nil {
		fd.Err = err.Error()
	}
	em.Emit(kqml.ProvEvent{Kind: kqml.ProvForward, Agent: b.cfg.Name, Forward: fd})
}
