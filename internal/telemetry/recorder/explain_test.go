package recorder

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
)

func matchEvent(agent, ad string, accepted bool) kqml.ProvEvent {
	md := &kqml.MatchDecision{Ad: ad, Engine: "linear", Accepted: accepted, Coverage: "covered", Specificity: 2}
	if !accepted {
		md.Specificity = 0
		md.Reason = "ontology mismatch"
	}
	return kqml.ProvEvent{Kind: kqml.ProvMatch, Agent: agent, Match: md}
}

func TestRecordProvDeduplicatesEnvelopeMirrors(t *testing.T) {
	r := New()
	d := provenance.Decision(matchEvent("B1", "R1", true))
	r.RecordSpan("t1", d)
	r.RecordSpan("t1", d) // envelope mirror of the same decision
	sums := r.Summaries(0)
	if len(sums) != 1 || sums[0].Prov != 1 {
		t.Fatalf("Summaries = %+v, want one trace with one event after dedup", sums)
	}
}

func TestRecordProvBoundAndDroppedMarkers(t *testing.T) {
	r := New()
	r.maxDecisionsPerTrace = 3
	for i := 0; i < 5; i++ {
		r.RecordSpan("t1", provenance.Decision(matchEvent("B1", fmt.Sprintf("R%d", i), true)))
	}
	// An envelope-cap marker is accounted, not stored.
	r.RecordSpan("t1", kqml.TraceSpan{Op: kqml.OpTraceDropped, Dropped: 7})
	sums := r.Summaries(0)
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1", len(sums))
	}
	if sums[0].Prov != 3 || sums[0].Dropped != 2+7 {
		t.Fatalf("summary %+v, want 3 stored and 9 dropped (2 over bound + 7 from marker)", sums[0])
	}
}

func TestRecordProvIgnoresUntraced(t *testing.T) {
	r := New()
	r.RecordSpan("", provenance.Decision(matchEvent("B1", "R1", true)))
	if len(r.Summaries(0)) != 0 {
		t.Fatal("event without a trace ID must be ignored")
	}
}

// TestExplainGroupsByKind pins the report structure: one recorded event of
// each kind lands in its own group, and the rendered text carries every
// section with the decision details.
func TestExplainGroupsByKind(t *testing.T) {
	r := New()
	r.RecordSpan("t1", provenance.Decision(matchEvent("B1", "R1", true)))
	r.RecordSpan("t1", provenance.Decision(matchEvent("B1", "R9", false)))
	r.RecordSpan("t1", provenance.Decision(kqml.ProvEvent{Kind: kqml.ProvForward, Agent: "B1",
		Forward: &kqml.ForwardDecision{Peer: "B2", Matches: 1}}))
	r.RecordSpan("t1", provenance.Decision(kqml.ProvEvent{Kind: kqml.ProvForward, Agent: "B1",
		Forward: &kqml.ForwardDecision{Peer: "B3", Skipped: "breaker open"}}))
	r.RecordSpan("t1", provenance.Decision(kqml.ProvEvent{Kind: kqml.ProvPushdown, Agent: "MRQ",
		Pushdown: &kqml.PushdownDecision{Class: "C1", Pushed: []string{"a >= 100"}, Columns: []string{"id", "a"}}}))
	r.RecordSpan("t1", provenance.Decision(kqml.ProvEvent{Kind: kqml.ProvFetch, Agent: "MRQ",
		Fetch: &kqml.FetchReport{Resource: "R1", Class: "C1", Pushed: true, Bytes: 412, LatencyMicros: 1032}}))
	r.RecordSpan("t1", provenance.Decision(kqml.ProvEvent{Kind: kqml.ProvFailover, Agent: "MRQ",
		Failover: &kqml.FailoverDecision{Class: "C1", Lost: "R3", CoveredBy: "R1", Note: "unreachable"}}))
	r.record(span("t1", "user", telemetry.OpUserSubmit, 0, 1_000_000, 900))

	ex, ok := r.Explain("t1")
	if !ok {
		t.Fatal("Explain: trace not found")
	}
	if len(ex.Matches) != 2 || len(ex.Forwards) != 2 || len(ex.Pushdowns) != 1 ||
		len(ex.Fetches) != 1 || len(ex.Failovers) != 1 {
		t.Fatalf("groups = %d/%d/%d/%d/%d, want 2/2/1/1/1",
			len(ex.Matches), len(ex.Forwards), len(ex.Pushdowns), len(ex.Fetches), len(ex.Failovers))
	}
	if ex.Tree == nil || len(ex.Tree.Roots) != 1 {
		t.Fatalf("Tree = %+v, want the span tree attached", ex.Tree)
	}
	got := ex.Format()
	for _, want := range []string{
		"explain trace t1: 7 decisions, 1 spans",
		"matchmaking",
		"B1: accept R1  [specificity 2, constraints covered]  (linear, cache miss, gen 0)",
		"B1: reject R9  — ontology mismatch",
		"B1 → B2: 1 match(es)",
		"B1 → B3: skipped (breaker open)",
		"C1 @ MRQ: pushed [a >= 100]; cols [id a]",
		"C1 ← R1: 412 B in 1032 µs  (pushed)",
		"C1: lost R3 → covered by R1 (unreachable)",
		"useragent.submit",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Format() missing %q:\n%s", want, got)
		}
	}
}

func TestExplainUnknownTrace(t *testing.T) {
	r := New()
	if _, ok := r.Explain("nope"); ok {
		t.Fatal("Explain of an unknown trace must report !ok")
	}
}

func TestHTTPExplainRoute(t *testing.T) {
	r := New()
	r.RecordSpan("t1", provenance.Decision(matchEvent("B1", "R1", true)))
	r.record(span("t1", "user", telemetry.OpUserSubmit, 0, 1_000_000, 900))
	h := r.Handler()

	req := httptest.NewRequest("GET", "/traces/t1/explain", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("GET /traces/t1/explain = %d, want 200", w.Code)
	}
	var ex Explain
	if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(ex.Matches) != 1 || ex.Matches[0].Match == nil || ex.Matches[0].Match.Ad != "R1" {
		t.Fatalf("explain body = %+v, want the match decision", ex)
	}
	if ex.Tree == nil || ex.Summary.ID != "t1" {
		t.Fatalf("explain body = %+v, want tree and summary", ex)
	}

	req = httptest.NewRequest("GET", "/traces/absent/explain", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 404 {
		t.Fatalf("GET /traces/absent/explain = %d, want 404", w.Code)
	}
}

// TestDegradedTraceAssembly is the partial-result shape: one fetch's RPC
// dies (error spans), a failover span records the replica recovery, and a
// second fetch succeeds. The error spans must still nest under the fetch
// that issued them, and nothing leaks to the roots.
func TestDegradedTraceAssembly(t *testing.T) {
	r := New()
	const us = int64(1000) // ns per µs
	// Delivered deliberately out of order, as concurrent fan-out does.
	r.record(span("t1", "MRQ", telemetry.OpMRQFetch, 0, 210*us, 30))
	errRPC := span("t1", "MRQ", telemetry.OpRPCCall, 0, 215*us, 5)
	errRPC.Err = "transport: peer unreachable"
	r.record(errRPC)
	r.record(span("t1", "user", telemetry.OpUserSubmit, 0, 100*us, 500))
	fail := span("t1", "R1", telemetry.OpFailover, 0, 250*us, 1)
	fail.Err = "transport: peer unreachable"
	r.record(fail)
	r.record(span("t1", "MRQ", telemetry.OpMRQAssemble, 0, 200*us, 300))
	r.record(span("t1", "MRQ", telemetry.OpMRQFetch, 0, 260*us, 100))
	r.record(span("t1", "R2", kqml.OpResourceQuery, 0, 280*us, 50))
	r.record(span("t1", "MRQ", telemetry.OpMRQRun, 0, 150*us, 400))

	tree, ok := r.Trace("t1")
	if !ok {
		t.Fatal("trace not assembled")
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Op != telemetry.OpUserSubmit {
		t.Fatalf("roots = %+v, want the single useragent.submit root", tree.Roots)
	}
	if tree.Summary.Errors != 2 {
		t.Errorf("Errors = %d, want 2 (failed RPC + failover note)", tree.Summary.Errors)
	}

	// Walk: submit > run > assemble > {fetch(err rpc), failover, fetch > query}.
	var find func(n *Node, op string) *Node
	find = func(n *Node, op string) *Node {
		if n.Op == op {
			return n
		}
		for _, c := range n.Children {
			if hit := find(c, op); hit != nil {
				return hit
			}
		}
		return nil
	}
	assemble := find(tree.Roots[0], telemetry.OpMRQAssemble)
	if assemble == nil {
		t.Fatalf("mrq.assemble not under the root:\n%s", tree.Format())
	}
	if len(assemble.Children) != 3 {
		t.Fatalf("assemble has %d children, want 3 (two fetches + failover):\n%s",
			len(assemble.Children), tree.Format())
	}
	failedFetch := assemble.Children[0]
	if failedFetch.Op != telemetry.OpMRQFetch || len(failedFetch.Children) != 1 ||
		failedFetch.Children[0].Err == "" {
		t.Errorf("failed fetch shape wrong: %+v", failedFetch)
	}
	if fo := find(assemble, telemetry.OpFailover); fo == nil || fo.Agent != "R1" {
		t.Errorf("failover span misplaced:\n%s", tree.Format())
	}
	okFetch := assemble.Children[2]
	if okFetch.Op != telemetry.OpMRQFetch || find(okFetch, kqml.OpResourceQuery) == nil {
		t.Errorf("successful fetch lost its resource.query child:\n%s", tree.Format())
	}
}
