package transport

import (
	"time"

	"infosleuth/internal/telemetry"
)

// Transport-layer metrics, recorded into the process-wide telemetry
// registry. The label distinguishes the in-process and TCP transports;
// per-address failure counts are kept separately because they are the raw
// signal behind dead-broker detection (Section 4.2.2): an agent's Call
// failing against a broker address is exactly the observation that starts
// the re-advertising cycle.
var (
	mCalls = telemetry.Default.CounterVec("infosleuth_transport_calls_total",
		"KQML request/reply calls issued, by transport.", "transport")
	mCallErrors = telemetry.Default.CounterVec("infosleuth_transport_call_errors_total",
		"Calls that returned an error, by transport.", "transport")
	mCallSeconds = telemetry.Default.HistogramVec("infosleuth_transport_call_seconds",
		"Round-trip latency of KQML calls in seconds, by transport.", "transport")
	mBytesSent = telemetry.Default.CounterVec("infosleuth_transport_bytes_sent_total",
		"Request payload bytes written, by transport.", "transport")
	mBytesReceived = telemetry.Default.CounterVec("infosleuth_transport_bytes_received_total",
		"Reply payload bytes read, by transport.", "transport")
	mPeerFailures = telemetry.Default.CounterVec("infosleuth_transport_peer_failures_total",
		"Failed calls by remote address — the raw signal feeding dead-broker detection.", "addr")
	mServed = telemetry.Default.CounterVec("infosleuth_transport_served_total",
		"Incoming messages served, by transport.", "transport")
	mServeSeconds = telemetry.Default.HistogramVec("infosleuth_transport_serve_seconds",
		"Server-side handling time per incoming message in seconds, by transport.", "transport")
	mServeErrors = telemetry.Default.CounterVec("infosleuth_transport_serve_errors_total",
		"Incoming exchanges aborted by frame or codec errors, by transport.", "transport")
	mServeIdleCloses = telemetry.Default.CounterVec("infosleuth_transport_serve_idle_closes_total",
		"Server-side connections closed for sitting idle past the idle timeout, by transport.", "transport")

	// Connection-pool metrics. dials vs reuses is the headline ratio: a
	// hot peer should show one dial and then reuses, which is the ≥5x
	// dial reduction the pooling change is accountable for.
	mPoolDials = telemetry.Default.Counter("infosleuth_transport_pool_dials_total",
		"TCP connections dialed (pool misses plus retry redials).")
	mPoolReuses = telemetry.Default.Counter("infosleuth_transport_pool_reuses_total",
		"Calls served over a pooled connection instead of a fresh dial.")
	mPoolEvictions = telemetry.Default.CounterVec("infosleuth_transport_pool_evictions_total",
		"Pooled connections discarded, by reason (expired, broken, overflow, closed).", "reason")
	mPoolIdle = telemetry.Default.Gauge("infosleuth_transport_pool_idle_conns",
		"TCP connections currently parked idle in the pool.")
)

// PoolStats is a point-in-time snapshot of the connection-pool counters,
// for tests and benchmarks.
type PoolStats struct {
	Dials     int64
	Reuses    int64
	Broken    int64
	IdleConns float64
}

// SnapshotPoolStats reads the process-wide pool counters.
func SnapshotPoolStats() PoolStats {
	return PoolStats{
		Dials:     mPoolDials.Value(),
		Reuses:    mPoolReuses.Value(),
		Broken:    mPoolEvictions.With("broken").Value(),
		IdleConns: mPoolIdle.Value(),
	}
}

// recordCall folds one completed Call into the registry.
func recordCall(label, addr string, start time.Time, sent, received int, err error) {
	mCalls.With(label).Inc()
	mCallSeconds.With(label).Observe(time.Since(start).Seconds())
	mBytesSent.With(label).Add(int64(sent))
	mBytesReceived.With(label).Add(int64(received))
	if err != nil {
		mCallErrors.With(label).Inc()
		mPeerFailures.With(addr).Inc()
	}
}

// PeerFailures reports how many calls have failed against addr since the
// process started. Agents and operators can use it to corroborate a
// dead-broker diagnosis before dropping the address from the
// connected-broker-list.
func PeerFailures(addr string) int64 {
	return mPeerFailures.With(addr).Value()
}
