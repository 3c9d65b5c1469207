package recorder

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// warmOp feeds enough fast roots that op's estimator passes the warm-up
// gate with a settled threshold.
func warmOp(r *Recorder, op string) {
	for i := 0; i < 200; i++ {
		r.ObserveRoot(telemetry.RootOutcome{Op: op, DurationMicros: int64(100 + i%10)})
	}
}

func TestSlowlogPinsSlowRoot(t *testing.T) {
	r := New()
	warmOp(r, "mrq.run")
	if got := r.Slowlog(0); len(got) != 0 {
		t.Fatalf("bulk traffic pinned %d entries", len(got))
	}
	// Record a span so the pinned entry can capture an explain report.
	r.RecordSpan("t-slow", kqml.TraceSpan{Agent: "MRQ", Op: "mrq.run", Start: 1, DurationMicros: 50000})
	r.ObserveRoot(telemetry.RootOutcome{Op: "mrq.run", TraceID: "t-slow", DurationMicros: 50000})
	entries := r.Slowlog(0)
	if len(entries) != 1 {
		t.Fatalf("slowlog holds %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Reason != ReasonSlow || e.TraceID != "t-slow" || e.ThresholdMicros <= 0 {
		t.Fatalf("pinned entry %+v", e)
	}
	if e.Explain == nil {
		t.Fatal("pinned entry lost its explain report")
	}
}

func TestSlowlogPinsErrorAndPartialBeforeWarmup(t *testing.T) {
	r := New()
	// Error and degraded roots pin even on a cold estimator.
	r.ObserveRoot(telemetry.RootOutcome{Op: "mrq.run", TraceID: "t-err", DurationMicros: 10, Err: true})
	r.ObserveRoot(telemetry.RootOutcome{Op: "mrq.run", TraceID: "t-part", DurationMicros: 10, Degraded: true})
	// Untraced outcomes move thresholds but cannot pin.
	r.ObserveRoot(telemetry.RootOutcome{Op: "mrq.run", DurationMicros: 10, Err: true})
	entries := r.Slowlog(0)
	if len(entries) != 2 {
		t.Fatalf("slowlog holds %d entries, want 2", len(entries))
	}
	// Newest first.
	if entries[0].Reason != ReasonPartial || entries[1].Reason != ReasonError {
		t.Fatalf("reasons %s/%s, want partial/error", entries[0].Reason, entries[1].Reason)
	}
}

func TestSlowlogDedupOutermostWins(t *testing.T) {
	r := New()
	// One conversation reports roots at several layers: the resource query,
	// then the MRQ run, then the user submission. One entry, outermost root.
	r.ObserveRoot(telemetry.RootOutcome{Op: "resource.query", TraceID: "t1", DurationMicros: 4000, Err: true})
	r.ObserveRoot(telemetry.RootOutcome{Op: "mrq.run", TraceID: "t1", DurationMicros: 4500, Err: true})
	r.ObserveRoot(telemetry.RootOutcome{Op: "useragent.submit", TraceID: "t1", DurationMicros: 5000, Err: true})
	// A shorter re-report must not replace the outermost.
	r.ObserveRoot(telemetry.RootOutcome{Op: "resource.query", TraceID: "t1", DurationMicros: 100, Err: true})
	entries := r.Slowlog(0)
	if len(entries) != 1 {
		t.Fatalf("slowlog holds %d entries, want 1 (deduped)", len(entries))
	}
	if entries[0].Op != "useragent.submit" || entries[0].DurationMicros != 5000 {
		t.Fatalf("kept %s/%dµs, want outermost useragent.submit/5000µs", entries[0].Op, entries[0].DurationMicros)
	}
}

func TestSlowlogRingBounded(t *testing.T) {
	r := New()
	r.slow = make([]SlowEntry, 4)
	for i := 0; i < 10; i++ {
		r.ObserveRoot(telemetry.RootOutcome{
			Op: "mrq.run", TraceID: fmt.Sprintf("t%d", i), DurationMicros: int64(1000 + i), Err: true,
		})
	}
	entries := r.Slowlog(0)
	if len(entries) != 4 {
		t.Fatalf("ring holds %d entries, want capacity 4", len(entries))
	}
	if entries[0].TraceID != "t9" || entries[3].TraceID != "t6" {
		t.Fatalf("ring kept %s..%s, want newest t9..t6", entries[0].TraceID, entries[3].TraceID)
	}
	if got := r.Slowlog(2); len(got) != 2 || got[0].TraceID != "t9" {
		t.Fatalf("limit=2 returned %d entries starting %s", len(got), got[0].TraceID)
	}
}

func TestSlowlogHandlerAndFormat(t *testing.T) {
	r := New()
	r.ObserveRoot(telemetry.RootOutcome{Op: "mrq.run", TraceID: "tj", DurationMicros: 1234, Err: true})

	rr := httptest.NewRecorder()
	r.SlowlogHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/slowlog", nil))
	var entries []SlowEntry
	if err := json.Unmarshal(rr.Body.Bytes(), &entries); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(entries) != 1 || entries[0].TraceID != "tj" {
		t.Fatalf("JSON entries %+v", entries)
	}

	rr = httptest.NewRecorder()
	r.SlowlogHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/slowlog?format=text", nil))
	text := rr.Body.String()
	if !strings.Contains(text, "slowlog: 1 pinned trace(s)") || !strings.Contains(text, "tj") {
		t.Fatalf("text rendering:\n%s", text)
	}

	rr = httptest.NewRecorder()
	r.SlowlogHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/slowlog?limit=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad limit returned %d, want 400", rr.Code)
	}

	// An empty slowlog serves [] rather than null.
	empty := New()
	rr = httptest.NewRecorder()
	empty.SlowlogHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/slowlog", nil))
	if strings.TrimSpace(rr.Body.String()) != "[]" {
		t.Fatalf("empty slowlog served %q, want []", rr.Body.String())
	}
}
