package recorder

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
)

// tspan is a trace entry under its trace ID.
type tspan struct {
	id string
	kqml.TraceSpan
}

func span(trace, agent, op string, hop int, start, us int64) tspan {
	return tspan{trace, kqml.TraceSpan{Agent: agent, Op: op, Hop: hop, Start: start, DurationMicros: us}}
}

// record hands s to the recorder under its trace ID.
func (r *Recorder) record(s tspan) { r.RecordSpan(s.id, s.TraceSpan) }

func TestRingEvictionOrderAndDrops(t *testing.T) {
	r := New()
	r.ring = make([]kqml.TraceSpan, 4)
	for i := 0; i < 6; i++ {
		r.record(span("t", fmt.Sprintf("a%d", i), "op", 0, int64(i+1), 1))
	}
	if got := r.Drops(); got != 2 {
		t.Fatalf("Drops() = %d, want 2 (6 spans through a 4-slot ring)", got)
	}
	spans := r.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest first: a2..a5 survive, a0/a1 were overwritten.
	for i, s := range spans {
		if want := fmt.Sprintf("a%d", i+2); s.Agent != want {
			t.Errorf("spans[%d].Agent = %q, want %q", i, s.Agent, want)
		}
	}
	if limited := r.Spans(2); len(limited) != 2 || limited[0].Agent != "a4" {
		t.Errorf("Spans(2) = %+v, want the 2 newest (a4, a5)", limited)
	}
}

func TestUntracedSpansIgnored(t *testing.T) {
	r := New()
	r.RecordSpan("", kqml.TraceSpan{Agent: "a", Op: "op"})
	if len(r.Spans(0)) != 0 || len(r.Summaries(0)) != 0 {
		t.Fatal("span without a trace ID must be ignored")
	}
}

func TestTraceDeduplication(t *testing.T) {
	r := New()
	s := span("t1", "agent", "broker.search", 1, 100, 50)
	r.record(s)
	r.record(s) // envelope mirror of the same span
	sums := r.Summaries(0)
	if len(sums) != 1 || sums[0].Spans != 1 {
		t.Fatalf("Summaries = %+v, want one trace with one span after dedup", sums)
	}
}

func TestTraceSummaryFields(t *testing.T) {
	r := New()
	r.record(span("t1", "user", "useragent.submit", 0, 1_000_000, 900))
	r.record(span("t1", "b1", "broker.search", 0, 1_100_000, 300))
	r.record(span("t1", "b2", "broker.search", 1, 1_200_000, 100))
	errSpan := span("t1", "res", "resource.query", 0, 1_300_000, 10)
	errSpan.Err = "boom"
	r.record(errSpan)
	sums := r.Summaries(0)
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1", len(sums))
	}
	s := sums[0]
	if s.Spans != 4 || s.Agents != 4 || s.MaxHop != 1 || s.Errors != 1 {
		t.Errorf("summary %+v: want 4 spans, 4 agents, max hop 1, 1 error", s)
	}
	if s.StartUnixNano != 1_000_000 {
		t.Errorf("StartUnixNano = %d, want earliest start 1000000", s.StartUnixNano)
	}
	// Latest end: user span 1_000_000 + 900µs = 901_000_000 ns.
	if s.DurationMicros != 900 {
		t.Errorf("DurationMicros = %d, want 900", s.DurationMicros)
	}
}

func TestDroppedMarkerAccounting(t *testing.T) {
	r := New()
	r.record(span("t1", "a", "op", 0, 1, 1))
	r.RecordSpan("t1", kqml.TraceSpan{Op: kqml.OpTraceDropped, Dropped: 7})
	sums := r.Summaries(0)
	if len(sums) != 1 || sums[0].Dropped != 7 || sums[0].Spans != 1 {
		t.Fatalf("Summaries = %+v, want dropped=7 and the marker not stored", sums)
	}
}

func TestPerTraceSpanBound(t *testing.T) {
	r := New()
	r.maxSpansPerTrace = 3
	for i := 0; i < 5; i++ {
		r.record(span("t1", fmt.Sprintf("a%d", i), "op", 0, int64(i+1), 1))
	}
	sums := r.Summaries(0)
	if sums[0].Spans != 3 || sums[0].Dropped != 2 {
		t.Fatalf("summary %+v, want 3 stored and 2 dropped", sums[0])
	}
}

func TestTraceEvictionByCountAndAge(t *testing.T) {
	r := New()
	r.maxTraces, r.maxTraceAge = 2, time.Minute
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }

	r.record(span("t1", "a", "op", 0, 1, 1))
	now = now.Add(time.Second)
	r.record(span("t2", "a", "op", 0, 2, 1))
	now = now.Add(time.Second)
	r.record(span("t3", "a", "op", 0, 3, 1)) // evicts t1 (LRU)
	if _, ok := r.Trace("t1"); ok {
		t.Fatal("t1 should have been evicted as least recently updated")
	}
	if _, ok := r.Trace("t2"); !ok {
		t.Fatal("t2 should survive count eviction")
	}

	// Age: everything stops updating, a new trace 2 minutes later evicts
	// the aged-out rest.
	now = now.Add(2 * time.Minute)
	r.record(span("t4", "a", "op", 0, 4, 1))
	if _, ok := r.Trace("t2"); ok {
		t.Fatal("t2 should have aged out")
	}
	if _, ok := r.Trace("t4"); !ok {
		t.Fatal("t4 should be present")
	}
}

func TestSummariesMostRecentFirst(t *testing.T) {
	r := New()
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }
	r.record(span("old", "a", "op", 0, 1, 1))
	now = now.Add(time.Second)
	r.record(span("new", "a", "op", 0, 2, 1))
	sums := r.Summaries(0)
	if len(sums) != 2 || sums[0].ID != "new" || sums[1].ID != "old" {
		t.Fatalf("Summaries order = %v, want [new old]", []string{sums[0].ID, sums[1].ID})
	}
	if limited := r.Summaries(1); len(limited) != 1 || limited[0].ID != "new" {
		t.Fatalf("Summaries(1) = %+v, want just the newest", limited)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New()
	r.ring, r.maxTraces = make([]kqml.TraceSpan, 64), 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.record(span(fmt.Sprintf("t%d", g%4), fmt.Sprintf("a%d", g), "op", 0, int64(g*1000+i+1), 1))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Summaries(0)
			r.Spans(10)
			r.Trace("t0")
		}
	}()
	wg.Wait()
	<-done
	if len(r.Summaries(0)) == 0 {
		t.Fatal("no traces recorded")
	}
}

// TestOutOfOrderAssembly feeds spans in scrambled order and expects the
// same nesting timing implies: a root enclosing a broker hop enclosing a
// forwarded hop, with a concurrent sibling RPC kept at the right level.
func TestOutOfOrderAssembly(t *testing.T) {
	r := New()
	ms := int64(1_000_000)
	// Arrival order is deliberately inside-out.
	r.record(span("t", "Broker2", "broker.search", 1, 40*ms, 10_000))  // forwarded hop
	r.record(span("t", "user", "useragent.submit", 0, 10*ms, 100_000)) // root (earliest)
	r.record(span("t", "user", "rpc.call", 0, 20*ms, 40_000))          // user -> broker1
	r.record(span("t", "Broker1", "broker.search", 0, 30*ms, 25_000))  // entry hop
	r.record(span("t", "Broker1", "rpc.call", 0, 35*ms, 18_000))       // broker1 -> broker2
	r.record(span("t", "user", "rpc.call", 0, 70*ms, 20_000))          // second, later sibling RPC

	tree, ok := r.Trace("t")
	if !ok {
		t.Fatal("trace not found")
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Op != "useragent.submit" {
		t.Fatalf("roots = %+v, want single useragent.submit root", tree.Roots)
	}
	root := tree.Roots[0]
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 sibling rpc.calls", len(root.Children))
	}
	first := root.Children[0]
	if first.Op != "rpc.call" || len(first.Children) != 1 || first.Children[0].Op != "broker.search" {
		t.Fatalf("first child chain wrong: %+v", first)
	}
	entry := first.Children[0]
	if entry.Hop != 0 || len(entry.Children) != 1 {
		t.Fatalf("entry broker hop wrong: %+v", entry)
	}
	fwd := entry.Children[0]
	if fwd.Op != "rpc.call" || len(fwd.Children) != 1 || fwd.Children[0].Hop != 1 {
		t.Fatalf("forwarded hop not nested under the inter-broker call: %+v", fwd)
	}
	if sib := root.Children[1]; sib.Op != "rpc.call" || sib.StartUnixNano != 70*ms {
		t.Fatalf("second sibling call wrong: %+v", sib)
	}
}

// TestSameAgentRPCSiblings: two concurrent fan-out calls from one agent
// where one window covers the other must not nest.
func TestSameAgentRPCSiblings(t *testing.T) {
	r := New()
	r.record(span("t", "Broker1", "broker.search", 0, 100, 100_000))
	r.record(span("t", "Broker1", "rpc.call", 0, 1_000, 90_000)) // long call
	r.record(span("t", "Broker1", "rpc.call", 0, 2_000, 10_000)) // covered by it
	tree, _ := r.Trace("t")
	if len(tree.Roots) != 1 {
		t.Fatalf("want single root, got %d", len(tree.Roots))
	}
	if n := len(tree.Roots[0].Children); n != 2 {
		t.Fatalf("same-agent rpc.calls must stay siblings; root has %d children", n)
	}
}

// TestHopChainFallback: a broker span without timing still lands under
// the hop above it.
func TestHopChainFallback(t *testing.T) {
	r := New()
	r.record(span("t", "Broker1", "broker.search", 0, 1_000, 50_000))
	r.record(span("t", "Broker2", "broker.search", 1, 0, 10)) // no Start
	tree, _ := r.Trace("t")
	if len(tree.Roots) != 1 {
		t.Fatalf("want single root, got %d roots", len(tree.Roots))
	}
	kids := tree.Roots[0].Children
	if len(kids) != 1 || kids[0].Agent != "Broker2" || kids[0].Hop != 1 {
		t.Fatalf("hop-1 span without timing should attach under hop 0, got %+v", kids)
	}
}

func TestFormatRendersTree(t *testing.T) {
	r := New()
	r.record(span("t", "user", "useragent.submit", 0, 1_000, 2_000))
	e := span("t", "Broker1", "broker.search", 1, 2_000, 500)
	e.Err = "no matches"
	r.record(e)
	tree, _ := r.Trace("t")
	text := tree.Format()
	for _, want := range []string{"trace t:", "useragent.submit", "broker.search[1]", "ERR no matches", "1 errors"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPTraceEndpoints(t *testing.T) {
	r := New()
	r.record(span("abc123", "user", "useragent.submit", 0, 1_000, 500))
	r.record(span("abc123", "Broker1", "broker.search", 0, 1_500, 100))
	h := r.Handler()

	// Listing.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces", nil))
	if rw.Code != 200 || !strings.Contains(rw.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("GET /traces: code %d content-type %q", rw.Code, rw.Header().Get("Content-Type"))
	}
	var sums []Summary
	if err := json.Unmarshal(rw.Body.Bytes(), &sums); err != nil {
		t.Fatalf("summaries JSON: %v", err)
	}
	if len(sums) != 1 || sums[0].ID != "abc123" || sums[0].Spans != 2 {
		t.Fatalf("summaries = %+v", sums)
	}

	// Full tree.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces/abc123", nil))
	if rw.Code != 200 {
		t.Fatalf("GET /traces/abc123: code %d", rw.Code)
	}
	var tree Tree
	if err := json.Unmarshal(rw.Body.Bytes(), &tree); err != nil {
		t.Fatalf("tree JSON: %v", err)
	}
	if tree.Summary.ID != "abc123" || len(tree.Roots) != 1 || tree.Roots[0].Op != "useragent.submit" {
		t.Fatalf("tree = %+v", tree)
	}

	// Unknown trace.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces/nope", nil))
	if rw.Code != 404 {
		t.Fatalf("GET /traces/nope: code %d, want 404", rw.Code)
	}

	// Bad limit.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces?limit=x", nil))
	if rw.Code != 400 {
		t.Fatalf("GET /traces?limit=x: code %d, want 400", rw.Code)
	}

	// Empty recorder lists as [], not null.
	empty := New()
	rw = httptest.NewRecorder()
	empty.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/traces", nil))
	if got := strings.TrimSpace(rw.Body.String()); got != "[]" {
		t.Fatalf("empty listing = %q, want []", got)
	}
}

func TestInstalledRecorderReceivesSpans(t *testing.T) {
	r := New()
	prev := telemetry.SetSpanRecorder(r)
	defer telemetry.SetSpanRecorder(prev)
	if !telemetry.SpanRecorderActive() {
		t.Fatal("SpanRecorderActive() = false after install")
	}
	telemetry.RecordSpan("t", kqml.TraceSpan{Agent: "a", Op: "op", Start: 1, DurationMicros: 1})
	telemetry.RecordSpan("", kqml.TraceSpan{Agent: "a", Op: "op"}) // no trace ID: dropped
	if got := len(r.Spans(0)); got != 1 {
		t.Fatalf("recorder holds %d spans, want 1", got)
	}
	telemetry.SetSpanRecorder(prev)
	telemetry.RecordSpan("t", kqml.TraceSpan{Agent: "a", Op: "op2", Start: 2, DurationMicros: 1})
	if got := len(r.Spans(0)); got != 1 {
		t.Fatalf("uninstalled recorder still received spans (%d)", got)
	}
}
