package broker

import (
	"infosleuth/internal/telemetry"
)

// Broker metrics. Matchmaking duration is labeled by matcher engine
// because the paper's central performance story is the cost of reasoning
// over the advertisement repository (the compiled matcher versus the
// LDL-style Datalog engine); repository size is the variable that cost
// scales with, so it is exported alongside.
var (
	mQueries = telemetry.Default.CounterVec("infosleuth_broker_queries_total",
		"Broker service queries handled, by broker.", "broker")
	mMatchSeconds = telemetry.Default.HistogramVec("infosleuth_broker_match_seconds",
		"Local matchmaking duration in seconds, by matcher engine.", "matcher")
	mRepoSize = telemetry.Default.GaugeVec("infosleuth_broker_repository_ads",
		"Advertisements currently held in the repository, by broker.", "broker")
	mForwards = telemetry.Default.CounterVec("infosleuth_broker_forwards_total",
		"Inter-broker query forwards sent, by broker.", "broker")
	mForwardErrors = telemetry.Default.CounterVec("infosleuth_broker_forward_errors_total",
		"Inter-broker forwards that failed or were refused, by broker.", "broker")
	mForwardHops = telemetry.Default.Histogram("infosleuth_broker_forward_hops",
		"Hop depth of forwarded queries as they arrive (0 = origin broker).")
	mRecruits = telemetry.Default.CounterVec("infosleuth_broker_recruits_total",
		"Recruit conversations, by outcome.", "outcome")
	mPings = telemetry.Default.Counter("infosleuth_broker_pings_total",
		"Broker pings answered (the Section 4.2.2 liveness checks).")
	mAgentsDropped = telemetry.Default.Counter("infosleuth_broker_agents_dropped_total",
		"Advertised agents dropped after failing a liveness ping.")

	// Match-cache metrics. hit/miss is the headline ratio; "shared"
	// counts lookups that piggybacked on a concurrent identical
	// computation (the Flood fan-in dedup), and invalidations counts
	// entries dropped because the repository generation moved on.
	mMatchCacheOps = telemetry.Default.CounterVec("infosleuth_broker_match_cache_total",
		"Match cache lookups, by result (hit, miss, shared).", "result")
	mMatchCacheInvalidations = telemetry.Default.Counter("infosleuth_broker_match_cache_invalidations_total",
		"Cached match results dropped because a Put/Remove bumped the repository generation.")
	mMatchCacheEvictions = telemetry.Default.Counter("infosleuth_broker_match_cache_evictions_total",
		"Cached match results evicted by the LRU capacity bound.")
	mMatchCacheEntries = telemetry.Default.Gauge("infosleuth_broker_match_cache_entries",
		"Match results currently resident in the cache.")
)

// matcherLabel names the matchmaking engine for the duration metric,
// unwrapping the cache so the label reflects the engine that computes
// misses.
func matcherLabel(m Matcher) string {
	switch mm := m.(type) {
	case *DirectMatcher:
		return "direct"
	case *DatalogMatcher:
		return "datalog"
	case *CachedMatcher:
		return matcherLabel(mm.Inner)
	default:
		return "custom"
	}
}

// recordRepoSize refreshes the repository-size gauge after any mutation.
func (b *Broker) recordRepoSize() {
	mRepoSize.With(b.cfg.Name).Set(float64(b.repo.Len()))
}
