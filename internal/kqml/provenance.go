package kqml

// Decision provenance: typed "why" events that ride reply envelopes as
// entries of the trace. Where a timing span records that a hop happened
// and how long it took, a ProvEvent records the decision the hop made — which
// advertisements matched and why the near-misses were rejected, which
// predicates were pushed down to a resource and which were blocked, which
// fragment failovers were absorbed by a covering replica, which peer
// brokers a search skipped. A decision is carried as a TraceSpan whose
// Decision field holds the event (see OpDecision). The kqml package stays
// telemetry-free: events are plain data here; the telemetry/provenance
// package stamps them and routes them into the flight recorder.

// ProvEvent kinds (the Kind discriminator selects which detail field is
// set).
const (
	// ProvMatch is a broker matchmaking decision about one candidate
	// advertisement.
	ProvMatch = "match"
	// ProvPushdown is an MRQ predicate/projection pushdown plan for one
	// class, or a resource-side rejection of a pushed query.
	ProvPushdown = "pushdown"
	// ProvFetch reports one fragment fetch: resource, bytes, latency,
	// whether the pushed query survived.
	ProvFetch = "fetch"
	// ProvFailover records a lost fragment source and whether a covering
	// replica absorbed the loss.
	ProvFailover = "failover"
	// ProvForward records an inter-broker forwarding decision for one
	// peer.
	ProvForward = "forward"
	// ProvPlan records an MRQ federated-planner decision: the cost-ranked
	// fragment fan-out order for a class, a semi-join rewrite, or an
	// aggregate pushdown (with its fallback reason when abandoned).
	ProvPlan = "plan"
)

// ProvEvent is one decision-provenance event. Exactly one of the detail
// pointers is set, selected by Kind.
type ProvEvent struct {
	// Kind is one of the Prov* constants.
	Kind string `json:"kind"`
	// Agent names the agent that made the decision.
	Agent string `json:"agent,omitempty"`

	Match    *MatchDecision    `json:"match,omitempty"`
	Pushdown *PushdownDecision `json:"pushdown,omitempty"`
	Fetch    *FetchReport      `json:"fetch,omitempty"`
	Failover *FailoverDecision `json:"failover,omitempty"`
	Forward  *ForwardDecision  `json:"forward,omitempty"`
	Plan     *PlanDecision     `json:"plan,omitempty"`
}

// MatchDecision records one candidate advertisement's fate during broker
// matchmaking: accepted into the match set or rejected, with the first
// failing check and the constraint-coverage relation between the ad and
// the query.
type MatchDecision struct {
	// Ad names the candidate advertisement.
	Ad string `json:"ad"`
	// Engine is the matcher that served the query ("direct", "datalog").
	Engine string `json:"engine,omitempty"`
	// Accepted reports whether the ad entered the match set.
	Accepted bool `json:"accepted"`
	// Reason is the first failing check for a rejected ad (the
	// ontology.MatchReason string), empty when accepted.
	Reason string `json:"reason,omitempty"`
	// Coverage describes how the ad's advertised data constraints relate
	// to the query's: "unconstrained" (query had none), "covered",
	// "overlaps" or "disjoint".
	Coverage string `json:"coverage,omitempty"`
	// Specificity is the ranking score of an accepted ad (higher sorts
	// first in the reply).
	Specificity int `json:"specificity,omitempty"`
	// CacheHit reports whether the match set was served from the broker's
	// match cache; Generation is the repository generation the cached (or
	// freshly computed) set is valid for.
	CacheHit   bool   `json:"cache_hit,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
}

// PushdownDecision records the MRQ's per-class pushdown plan — which
// WHERE conjuncts and projections were pushed to resources and which were
// blocked, with reasons — or, when emitted by a resource agent, why a
// pushed query was rejected (Fallback carries the rejection).
type PushdownDecision struct {
	// Class is the ontology class (FROM table) the plan covers.
	Class string `json:"class"`
	// Pushed lists WHERE conjuncts pushed to every fragment source.
	Pushed []string `json:"pushed,omitempty"`
	// Blocked lists conjuncts or projections kept local, each with its
	// reason ("price > 10: column price not covered by R2").
	Blocked []string `json:"blocked,omitempty"`
	// Columns lists the projected columns pushed down (empty means
	// SELECT *).
	Columns []string `json:"columns,omitempty"`
	// Fallback is the reason pushdown was abandoned for this class or
	// rejected by the resource, empty when the plan stood.
	Fallback string `json:"fallback,omitempty"`
}

// FetchReport records one MRQ fragment fetch: the resource consulted,
// the bytes and latency it cost, and whether the pushed query survived
// or the fetch fell back to SELECT *.
type FetchReport struct {
	// Resource names the resource agent fetched from.
	Resource string `json:"resource"`
	// Class is the ontology class the fragment belongs to.
	Class string `json:"class"`
	// SQL is the query sent (the narrowed pushdown form when Pushed).
	SQL string `json:"sql,omitempty"`
	// Pushed reports whether the narrowed pushdown query was used.
	Pushed bool `json:"pushed,omitempty"`
	// Fallback reports that the resource rejected the pushed form and the
	// fetch was retried as SELECT *.
	Fallback bool `json:"fallback,omitempty"`
	// Bytes is the reply content size received.
	Bytes int64 `json:"bytes,omitempty"`
	// LatencyMicros is the round-trip time of the fetch.
	LatencyMicros int64 `json:"us,omitempty"`
	// Err is the fetch error, empty on success.
	Err string `json:"err,omitempty"`
}

// FailoverDecision records a fragment source lost mid-gather and how the
// MRQ handled it: absorbed by a covering replica, or degraded into a
// partial result.
type FailoverDecision struct {
	// Class is the ontology class whose fragment source was lost.
	Class string `json:"class"`
	// Lost names the failed resource agent.
	Lost string `json:"lost"`
	// CoveredBy names the surviving replica whose data covers the loss;
	// empty means no replica covered it and the result degraded.
	CoveredBy string `json:"covered_by,omitempty"`
	// Note carries the failure ("connection refused") or the degradation
	// note recorded on the partial result.
	Note string `json:"note,omitempty"`
}

// PlanDecision records one MRQ federated-planner decision for a class:
// the cost-ranked fan-out order, a semi-join rewrite (build/probe sides
// and how many keys were pushed), or an aggregate pushdown (which partial
// aggregates went to the fragments). Fallback explains why a rewrite was
// planned but abandoned.
type PlanDecision struct {
	// Class is the ontology class the decision covers.
	Class string `json:"class"`
	// Order is the cost-ranked fragment fan-out order (resource names,
	// cheapest first); empty when no stats signal reordered the match set.
	Order []string `json:"order,omitempty"`
	// CostsMicros are the modeled per-resource costs aligned with Order.
	CostsMicros []int64 `json:"costs_us,omitempty"`
	// SemiJoin marks a semi-join rewrite; Build/Probe name the sides and
	// JoinColumn the probe-side column the key set was pushed on.
	SemiJoin   bool   `json:"semi_join,omitempty"`
	Build      string `json:"build,omitempty"`
	Probe      string `json:"probe,omitempty"`
	JoinColumn string `json:"join_column,omitempty"`
	// Keys is how many distinct build-side keys were pushed.
	Keys int `json:"keys,omitempty"`
	// Aggregates lists the partial aggregates pushed to the fragments.
	Aggregates []string `json:"aggregates,omitempty"`
	// Fallback is why a planned rewrite was abandoned ("key set exceeds
	// cap", "fragments overlap"), empty when the rewrite stood.
	Fallback string `json:"fallback,omitempty"`
}

// ForwardDecision records one inter-broker forwarding decision: a peer
// forwarded to (with its match count), or skipped and why.
type ForwardDecision struct {
	// Peer names the peer broker considered.
	Peer string `json:"peer"`
	// Skipped is why the peer was not forwarded to ("breaker open",
	// "already visited", "pruned"), empty when the forward happened.
	Skipped string `json:"skipped,omitempty"`
	// Matches is how many advertisements the peer's subtree returned.
	Matches int `json:"matches,omitempty"`
	// Err is the forwarding error, empty on success or skip.
	Err string `json:"err,omitempty"`
}
