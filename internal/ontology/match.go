package ontology

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"infosleuth/internal/constraint"
)

// FollowOption controls how far an inter-broker search propagates
// (Section 4.3, modeled on the CORBA trading service's follow policy).
type FollowOption int

// Follow options.
const (
	// FollowLocal considers only the receiving broker's own repository.
	FollowLocal FollowOption = iota
	// FollowAll considers all reachable repositories.
	FollowAll
	// FollowUntilMatch expands the search only until a single match is
	// found.
	FollowUntilMatch
)

// String names the follow option.
func (f FollowOption) String() string {
	switch f {
	case FollowLocal:
		return "local"
	case FollowAll:
		return "all"
	case FollowUntilMatch:
		return "until-match"
	default:
		return fmt.Sprintf("follow(%d)", int(f))
	}
}

// SearchPolicy is the requesting agent's inter-broker search policy
// property list (Section 4.3): how many broker hops a request may traverse
// and which repositories to consult.
type SearchPolicy struct {
	// HopCount is the maximum number of hops between brokers the request
	// will traverse. 0 means use the broker's default (1 — the broker's
	// own consortium and directly connected brokers).
	HopCount int
	// Follow selects which repositories to consult.
	Follow FollowOption
}

// DefaultPolicy is applied when the requesting agent specifies none: one
// hop, all repositories.
var DefaultPolicy = SearchPolicy{HopCount: 1, Follow: FollowAll}

// Query is a broker query: a partially-specified advertisement pattern plus
// result controls (the ask-all content of Section 2.4). Zero-valued fields
// are "don't care" — the paper's "?variables".
type Query struct {
	// Type restricts the agent type (e.g. only resource agents).
	Type AgentType
	// ContentLanguage requires an agent accepting this query language
	// (syntactic knowledge — "SQL 2.0").
	ContentLanguage string
	// CommLanguage requires an agent speaking this ACL (e.g. "KQML").
	CommLanguage string
	// Conversations require supported conversation types (e.g. ask-all).
	Conversations []string
	// Capabilities require semantic capabilities; each must be satisfied
	// by some advertised capability under the hierarchy.
	Capabilities []string
	// Ontology restricts content to agents supporting this domain model.
	Ontology string
	// Classes require the agent to serve these ontology classes
	// (subclass-aware: an agent serving a subclass matches).
	Classes []string
	// Slots require the listed slots to be visible on some served class.
	Slots []string
	// Constraints describe the data of interest; the agent's advertised
	// constraints must overlap them.
	Constraints *constraint.Set
	// MaxResponseSec, when positive, excludes agents advertising a larger
	// estimated response time.
	MaxResponseSec float64
	// RequireMobile, when non-nil, requires the agent's mobility to equal
	// the value.
	RequireMobile *bool
	// Limit caps the number of recommendations; 0 means all matches.
	Limit int
	// Policy is the inter-broker search policy.
	Policy SearchPolicy
}

// Validate checks that the query is internally consistent.
func (q *Query) Validate() error {
	if q.Constraints.Unsatisfiable() {
		return fmt.Errorf("query constraints are unsatisfiable: %s", q.Constraints)
	}
	if q.Limit < 0 {
		return fmt.Errorf("query limit must be non-negative, got %d", q.Limit)
	}
	if len(q.Classes) > 0 && q.Ontology == "" {
		return fmt.Errorf("query names classes %v but no ontology", q.Classes)
	}
	return nil
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	cp := *q
	cp.Conversations = append([]string(nil), q.Conversations...)
	cp.Capabilities = append([]string(nil), q.Capabilities...)
	cp.Classes = append([]string(nil), q.Classes...)
	cp.Slots = append([]string(nil), q.Slots...)
	cp.Constraints = q.Constraints.Clone()
	if q.RequireMobile != nil {
		v := *q.RequireMobile
		cp.RequireMobile = &v
	}
	return &cp
}

// String renders a one-line summary of the query for logs.
func (q *Query) String() string {
	var parts []string
	if q.Type != TypeAny {
		parts = append(parts, "type="+string(q.Type))
	}
	if q.ContentLanguage != "" {
		parts = append(parts, "lang="+q.ContentLanguage)
	}
	if len(q.Capabilities) > 0 {
		parts = append(parts, "caps="+strings.Join(q.Capabilities, "+"))
	}
	if q.Ontology != "" {
		parts = append(parts, "ontology="+q.Ontology)
	}
	if len(q.Classes) > 0 {
		parts = append(parts, "classes="+strings.Join(q.Classes, "+"))
	}
	if q.Constraints.Len() > 0 {
		parts = append(parts, "where "+q.Constraints.String())
	}
	if len(parts) == 0 {
		return "query(any)"
	}
	return "query(" + strings.Join(parts, " ") + ")"
}

// World is the shared knowledge a matcher reasons with: the capability
// hierarchy and the domain ontologies. A nil World matches with exact
// string equality only (no subsumption reasoning).
type World struct {
	Capabilities *CapabilityHierarchy
	Ontologies   map[string]*Ontology
}

// NewWorld returns a World with the default capability hierarchy and the
// given domain ontologies.
func NewWorld(onts ...*Ontology) *World {
	w := &World{
		Capabilities: DefaultHierarchy(),
		Ontologies:   make(map[string]*Ontology),
	}
	for _, o := range onts {
		w.Ontologies[o.Name] = o
	}
	return w
}

// Ontology returns a domain ontology by name, or nil. A name not
// registered as written is looked up without regard to case, the way
// fragments' ontology names are compared.
func (w *World) Ontology(name string) *Ontology {
	if w == nil {
		return nil
	}
	if o, ok := w.Ontologies[name]; ok {
		return o
	}
	for n, o := range w.Ontologies {
		if strings.EqualFold(n, name) {
			return o
		}
	}
	return nil
}

// MatchReason explains why an advertisement was rejected; empty means it
// matched.
type MatchReason string

// Rejection reasons, ordered from syntactic to semantic — useful in logs
// and asserted by tests.
const (
	Matched            MatchReason = ""
	RejectType         MatchReason = "agent type mismatch"
	RejectCommLanguage MatchReason = "communication language mismatch"
	RejectContentLang  MatchReason = "content language mismatch"
	RejectConversation MatchReason = "conversation type not supported"
	RejectCapability   MatchReason = "capability not satisfied"
	RejectOntology     MatchReason = "ontology not supported"
	RejectClass        MatchReason = "class not served"
	RejectSlot         MatchReason = "slot not visible"
	RejectConstraints  MatchReason = "data constraints do not overlap"
	RejectResponseTime MatchReason = "estimated response time too high"
	RejectMobility     MatchReason = "mobility requirement not met"
)

// Match reports whether an advertisement satisfies a query, combining the
// syntactic and semantic brokering of Section 2.3. It returns the first
// rejection reason, or Matched. This is the reference implementation of the
// brokering relation; the broker's Datalog engine implements the same
// relation and the two are cross-checked in tests.
func Match(w *World, ad *Advertisement, q *Query) MatchReason {
	// Syntactic brokering: type, languages, conversations.
	if q.Type != TypeAny && ad.Type != q.Type {
		return RejectType
	}
	if q.CommLanguage != "" && !containsFold(ad.CommLanguages, q.CommLanguage) {
		return RejectCommLanguage
	}
	if q.ContentLanguage != "" && !containsFold(ad.ContentLanguages, q.ContentLanguage) {
		return RejectContentLang
	}
	for _, conv := range q.Conversations {
		if !containsFold(ad.Conversations, conv) {
			return RejectConversation
		}
	}

	// Semantic brokering: capabilities under the containment hierarchy.
	for _, cap := range q.Capabilities {
		if !satisfiesCapability(w, ad.Capabilities, cap) {
			return RejectCapability
		}
	}

	// Semantic brokering: content (ontology, classes, slots, constraints).
	if q.Ontology != "" {
		if !anyFragment(ad, q.Ontology, func(*Fragment) bool { return true }) {
			return RejectOntology
		}
		ont := w.Ontology(q.Ontology)
		for _, class := range q.Classes {
			if !anyFragment(ad, q.Ontology, func(f *Fragment) bool { return f.servesClass(class, ont) }) {
				return RejectClass
			}
		}
		for _, slot := range q.Slots {
			if !anyFragment(ad, q.Ontology, func(f *Fragment) bool { return f.exposesSlot(slot, ont) }) {
				return RejectSlot
			}
		}
		if !MatchesConstraints(ad, q) {
			return RejectConstraints
		}
	}

	// Pragmatic properties.
	if q.MaxResponseSec > 0 && ad.Properties.EstimatedResponseSec > q.MaxResponseSec {
		return RejectResponseTime
	}
	if q.RequireMobile != nil && ad.Properties.Mobile != *q.RequireMobile {
		return RejectMobility
	}
	return Matched
}

// MatchesConstraints is Match's constraint clause: an advertisement
// satisfies a query's data constraints when the query names no ontology
// or no constraints, or when some fragment on the query's ontology
// overlaps them. No other clause of Match reads the constraints, so an
// agent holding the matches of a query without its constraints narrows
// them to the constrained query with this clause alone.
func MatchesConstraints(ad *Advertisement, q *Query) bool {
	return q.Ontology == "" || q.Constraints.Len() == 0 ||
		anyFragment(ad, q.Ontology, func(f *Fragment) bool { return f.Constraints.Overlaps(q.Constraints) })
}

// rankedAds sorts an ad slice and its parallel score slice together:
// best score first, name as the deterministic tiebreak. Implementing
// sort.Interface over the two parallel slices avoids allocating a
// []struct{ad, score} per match call on the hot path.
type rankedAds struct {
	ads    []*Advertisement
	scores []int
}

func (r *rankedAds) Len() int { return len(r.ads) }
func (r *rankedAds) Less(i, j int) bool {
	if r.scores[i] != r.scores[j] {
		return r.scores[i] > r.scores[j]
	}
	return r.ads[i].Name < r.ads[j].Name
}
func (r *rankedAds) Swap(i, j int) {
	r.ads[i], r.ads[j] = r.ads[j], r.ads[i]
	r.scores[i], r.scores[j] = r.scores[j], r.scores[i]
}

// rankPool recycles the score slices (and their rankedAds headers)
// between RankMatches calls.
var rankPool = sync.Pool{
	New: func() any { return &rankedAds{scores: make([]int, 0, 64)} },
}

// RankMatches sorts best-semantic-match first (the paper's MRQ2 example:
// the specialist is recommended over the generalist), with name as the
// deterministic tiebreak. It is the broker's ranking of every match list
// it returns, and the ranking an agent applies when it narrows a located
// set to one query (see agent.Base.QueryBrokers).
func RankMatches(w *World, ads []*Advertisement, q *Query) {
	if len(ads) < 2 {
		return
	}
	r := rankPool.Get().(*rankedAds)
	r.ads = ads
	r.scores = r.scores[:0]
	for _, ad := range ads {
		r.scores = append(r.scores, Specificity(w, ad, q))
	}
	sort.Stable(r)
	r.ads = nil
	rankPool.Put(r)
}

// Specificity scores how narrowly an advertisement fits a query; among
// matching agents, higher is a better semantic match. The paper's MRQ2
// example: an agent specializing in exactly the requested class C2 is
// recommended over a general-purpose one. One point per requested class
// served directly (not via hierarchy), one per requested capability
// advertised below the hierarchy root, and one if advertised constraints
// are covered by the query's (the agent holds only relevant data).
func Specificity(w *World, ad *Advertisement, q *Query) int {
	score := 0
	if q.Ontology != "" {
		for _, class := range q.Classes {
			if anyFragment(ad, q.Ontology, func(f *Fragment) bool { return f.HasClass(class) }) {
				score++
			}
		}
		if q.Constraints.Len() > 0 && anyFragment(ad, q.Ontology, func(f *Fragment) bool {
			return f.Constraints.Len() > 0 && q.Constraints.Covers(f.Constraints)
		}) {
			score++
		}
	}
	for _, cap := range q.Capabilities {
		if containsFold(ad.Capabilities, cap) {
			score++
		}
	}
	return score
}

func satisfiesCapability(w *World, advertised []string, requested string) bool {
	if w != nil && w.Capabilities != nil {
		return w.Capabilities.Satisfies(advertised, requested)
	}
	return containsFold(advertised, requested)
}

// anyFragment reports whether some fragment of the advertisement on the
// named ontology satisfies ok. It walks ad.Content in place: Match and
// Specificity run once per candidate, and a slice of fragments per call
// was their only allocation.
func anyFragment(ad *Advertisement, ontologyName string, ok func(*Fragment) bool) bool {
	for i := range ad.Content {
		if f := &ad.Content[i]; strings.EqualFold(f.Ontology, ontologyName) && ok(f) {
			return true
		}
	}
	return false
}

// servesClass checks class service with subclass reasoning: a fragment
// serving class C answers queries about C and about any superclass of C
// (its instances are instances of the superclass).
func (f *Fragment) servesClass(class string, ont *Ontology) bool {
	if f.HasClass(class) {
		return true
	}
	if ont != nil {
		for _, served := range f.Classes {
			if ont.IsSubclassOf(served, class) {
				return true
			}
		}
	}
	return false
}

func (f *Fragment) exposesSlot(slot string, ont *Ontology) bool {
	for _, class := range f.Classes {
		for _, s := range f.SlotsFor(class, ont) {
			if strings.EqualFold(s, slot) {
				return true
			}
		}
	}
	return false
}

func containsFold(haystack []string, needle string) bool {
	for _, h := range haystack {
		if strings.EqualFold(h, needle) {
			return true
		}
	}
	return false
}
