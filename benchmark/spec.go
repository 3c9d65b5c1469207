package main

// The benchmark's frozen definition: workload names, metric names and
// units, paced rates and phase sizes. BENCHMARK.json at the repository
// root lists the same names for the driver (TestSpecAgreesWithBenchmarkJSON
// holds the two equal); the driver's schema has no
// room for rates and phase sizes, so they are frozen here instead.
// Changing any value in this file is a benchmark change with its own PR.

const defaultSeed = 1999

// Workload names, in the order a full run executes them.
const (
	wlQueryPoint      = "query_point"
	wlQueryFanout     = "query_fanout"
	wlBrokerChurn     = "broker_churn"
	wlSubscribeStream = "subscribe_stream"
)

var workloadNames = []string{wlQueryPoint, wlQueryFanout, wlBrokerChurn, wlSubscribeStream}

// defaultSeconds is BENCHMARK.json's run_seconds: what one run measures
// when -seconds is not given. A run splits it between its phases, see
// phaseSplit.
const defaultSeconds = 30

// setupRuns is how many times a run builds the workload's community;
// setup_s is the median, as the driver's contract asks, and the last
// build is the one measured.
const setupRuns = 3

// pacedRate is each workload's frozen offered load in ops/s for the
// paced phase: about 40% of the seed commit's saturate throughput on
// the 2-core reference box, rounded to one significant digit
// (calibration runs are in README.md).
var pacedRate = map[string]float64{
	wlQueryPoint:      1000,
	wlQueryFanout:     80,
	wlBrokerChurn:     200,
	wlSubscribeStream: 80,
}

// subSaturateRate sizes subscribe_stream's count-based saturate phase:
// changes = subSaturateRate x phase seconds, about the seed commit's
// saturate throughput, so the phase takes about its share of -seconds
// there and ends at the same table size on every commit.
const subSaturateRate = 200

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the end-to-end metrics every workload reports from an
// untraced run. failed_frac is reported beside them (and gated by
// -compare on any rise) but is not in BENCHMARK.json, whose metrics
// must never read 0; the driver gets failures from the result line's
// "failed" count.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"op_mean_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KB"},
	{"wire_kb_per_op", "KB"},
	{"heap_live_mb", "MB"},
}

const failedFrac = "failed_frac"

// perLayer lists the per-layer metrics a traced run reports; a metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"kqml.encode_us_per_op", "us"},
	{"kqml.decode_us_per_op", "us"},
	{"kqml.encode_allocs_per_msg", "count"},
	{"kqml.decode_allocs_per_msg", "count"},
	{"kqml.bytes_per_msg", "B"},

	{"transport.calls_per_op", "count"},
	{"transport.rtt_self_us_per_op", "us"},
	{"transport.dials_per_op", "count"},
	{"transport.bytes_per_call", "B"},
	{"transport.ping_rtt_us", "us"},

	{"agent.dispatch_floor_us", "us"},
	{"agent.client_self_us_per_op", "us"},

	{"useragent.self_us_per_op", "us"},

	{"broker.searches_per_op", "count"},
	{"broker.search_self_us_per_op", "us"},
	{"broker.forwards_per_op", "count"},
	{"broker.forward_wait_us_per_op", "us"},
	{"broker.advertise_self_us", "us"},
	{"broker.unadvertise_self_us", "us"},
	{"broker.cache_hit_ratio", "ratio"},
	{"broker.cache_invalidations_per_op", "count"},
	{"broker.matches_per_search", "count"},
	{"broker.match_us", "us"},
	{"broker.match_cached_us", "us"},
	{"broker.repo_ads", "count"},
	{"broker.heap_bytes_per_ad", "B"},

	{"mrq.self_us_per_op", "us"},
	{"mrq.broker_wait_us_per_op", "us"},
	{"mrq.fetches_per_op", "count"},
	{"mrq.fetch_wait_us_per_op", "us"},
	{"mrq.fetch_sum_us_per_op", "us"},
	{"mrq.fetch_kb_per_op", "KB"},
	{"mrq.merge_us_per_op", "us"},
	{"mrq.semijoins_per_op", "count"},
	{"mrq.agg_pushdowns_per_op", "count"},
	{"mrq.plan_fallbacks_per_op", "count"},
	{"mrq.pushdown_saved_kb_per_op", "KB"},

	{"resource.queries_per_op", "count"},
	{"resource.query_self_us_per_op", "us"},
	{"resource.rows_returned_per_op", "count"},
	{"resource.run_us_per_query", "us"},
	{"resource.insert_us", "us"},
	{"resource.notify_self_us_per_change", "us"},
	{"resource.subscribe_us", "us"},
	{"resource.evals_per_change", "count"},
	{"resource.evals_skipped_per_change", "count"},
	{"resource.notifies_per_change", "count"},
	{"resource.notify_errors", "count"},
	{"resource.heap_bytes_per_sub", "B"},

	{"sqlparse.parse_us_per_op", "us"},

	{"broadcast.publish_us", "us"},
	{"broadcast.enqueues_per_change", "count"},
	{"broadcast.coalesced_frac", "ratio"},
	{"broadcast.dropped", "count"},

	{"constraint.overlaps_ns", "ns"},

	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// maxUnattributed is the share of op time the span tree may leave
// uncovered before the layer table is distrusted.
const maxUnattributed = 0.10
