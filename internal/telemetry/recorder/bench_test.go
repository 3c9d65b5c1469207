package recorder

import (
	"testing"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// BenchmarkRecordSpan measures the raw cost of one recorded span: the
// ring write, the dedup lookup, and the trace-store append.
//
//	go test -bench=RecordSpan -benchmem ./internal/telemetry/recorder
func BenchmarkRecordSpan(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordSpan("bench", kqml.TraceSpan{Agent: "a", Op: "rpc.call", Start: int64(i + 1), DurationMicros: 1})
	}
}

// BenchmarkInstrumentedCallWithRecorder measures what an instrumented
// transport call pays with a flight recorder installed on top of the
// metrics path: the timestamp pair plus the telemetry.RecordSpan
// indirection into the recorder. This is the always-on configuration every
// daemon runs; the acceptance bound is < 1 µs per call.
func BenchmarkInstrumentedCallWithRecorder(b *testing.B) {
	rec := New()
	prev := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		telemetry.RecordSpan("bench", kqml.TraceSpan{
			Agent: "a", Op: "rpc.call", Start: start.UnixNano(), DurationMicros: time.Since(start).Microseconds(),
		})
	}
}

// BenchmarkTailSampleDecision measures the tail-sampling decision on the
// untraced hot path: an outcome with no trace ID feeds the per-op
// quantile estimator and returns without pinning anything. This is the
// cost every root operation pays once the recorder is installed, so
// TestTailSampleDecisionAllocs pins it at 0 allocations (and it must stay
// well under 1 µs).
//
//	go test -bench=TailSampleDecision -benchmem ./internal/telemetry/recorder
func BenchmarkTailSampleDecision(b *testing.B) {
	op := tailSampleOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// tailSampleOp installs a recorder as the root observer and returns one
// untraced sampling decision.
func tailSampleOp(tb testing.TB) func() {
	rec := New()
	prev := telemetry.SetRootObserver(rec)
	tb.Cleanup(func() { telemetry.SetRootObserver(prev) })
	// First observation allocates the op's sampler; keep it out of the
	// measured loop like a live daemon's steady state.
	telemetry.ObserveRoot(telemetry.RootOutcome{Op: "bench.op", DurationMicros: 100})
	i := 0
	return func() {
		i++
		telemetry.ObserveRoot(telemetry.RootOutcome{Op: "bench.op", DurationMicros: int64(100 + i%16)})
	}
}

// TestTailSampleDecisionOverhead asserts the acceptance bound directly,
// mirroring TestRecorderOverhead: the untraced sampling decision must
// average well under 1 µs.
func TestTailSampleDecisionOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test (skipped under -short and -race)")
	}
	rec := New()
	prev := telemetry.SetRootObserver(rec)
	defer func() { telemetry.SetRootObserver(prev) }()
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		telemetry.ObserveRoot(telemetry.RootOutcome{Op: "bench.op", DurationMicros: int64(100 + i%16)})
	}
	per := time.Since(start) / n
	if per > time.Microsecond {
		t.Errorf("tail-sampling decision %v per root, want < 1µs", per)
	}
}

// TestRecorderOverhead asserts the acceptance bound directly: recording
// one span through the telemetry indirection must average well under
// 1 µs, so tracing can stay always-on in the daemons.
func TestRecorderOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test (skipped under -short and -race)")
	}
	rec := New()
	prev := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prev)
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		telemetry.RecordSpan("bench", kqml.TraceSpan{Agent: "a", Op: "rpc.call", Start: int64(i + 1), DurationMicros: 1})
	}
	per := time.Since(start) / n
	if per > time.Microsecond {
		t.Errorf("recorder overhead %v per span, want < 1µs", per)
	}
}

// TestUninstalledRecorderOverhead: with no recorder installed the span
// path must be nearly free (one atomic load), so untraced deployments pay
// nothing.
func TestUninstalledRecorderOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test (skipped under -short and -race)")
	}
	if telemetry.SpanRecorderActive() {
		t.Skip("a recorder is installed globally")
	}
	const n = 1000000
	start := time.Now()
	for i := 0; i < n; i++ {
		if telemetry.SpanRecorderActive() {
			t.Fatal("unexpected recorder")
		}
	}
	per := time.Since(start) / n
	if per > 100*time.Nanosecond {
		t.Errorf("inactive-recorder check %v per call, want < 100ns", per)
	}
}
