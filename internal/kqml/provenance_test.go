package kqml

import (
	"fmt"
	"math/rand"
	"testing"
)

// provN returns n decision entries, each forwarding to its own peer.
func provN(n int) []TraceSpan {
	out := make([]TraceSpan, n)
	for i := range out {
		agent := fmt.Sprintf("B%d", i)
		out[i] = TraceSpan{Agent: agent, Op: OpDecision, Start: int64(i + 1), Decision: &ProvEvent{
			Kind: ProvForward, Agent: agent, Forward: &ForwardDecision{Peer: fmt.Sprintf("P%d", i)}}}
	}
	return out
}

func TestAppendProvFastPath(t *testing.T) {
	dst := provN(3)
	out := AppendSpans(dst, provN(2)...)
	if len(out) != 5 {
		t.Fatalf("got %d entries, want 5", len(out))
	}
	for _, e := range out {
		if e.Op == OpTraceDropped {
			t.Fatalf("unexpected marker in uncapped append")
		}
	}
	if AppendSpans(nil) != nil {
		t.Fatalf("empty append should stay nil")
	}
}

func TestAppendProvCapKeepsNewest(t *testing.T) {
	out := AppendSpans(provN(MaxTraceSpans), provN(10)...)
	if len(out) != MaxTraceSpans {
		t.Fatalf("got %d entries, want %d", len(out), MaxTraceSpans)
	}
	if out[0].Op != OpTraceDropped {
		t.Fatalf("first entry should be the dropped marker, got %q", out[0].Op)
	}
	if want := MaxTraceSpans + 10 - (MaxTraceSpans - 1); out[0].Dropped != want {
		t.Fatalf("marker dropped=%d, want %d", out[0].Dropped, want)
	}
	// Newest survive: the last appended decision must still be present.
	last := out[len(out)-1]
	if last.Decision == nil || last.Decision.Forward.Peer != "P9" {
		t.Fatalf("newest decision lost: tail is %+v", last)
	}
}

func TestAppendProvCoalescesMarkers(t *testing.T) {
	dst := append([]TraceSpan{{Op: OpTraceDropped, Dropped: 7}}, provN(2)...)
	more := append([]TraceSpan{{Op: OpTraceDropped, Dropped: 3}}, provN(2)...)
	out := AppendSpans(dst, more...)
	markers := 0
	for _, e := range out {
		if e.Op == OpTraceDropped {
			markers++
			if e.Dropped != 10 {
				t.Fatalf("marker dropped=%d, want 10", e.Dropped)
			}
		}
	}
	if markers != 1 {
		t.Fatalf("got %d markers, want 1", markers)
	}
	if out[0].Op != OpTraceDropped {
		t.Fatalf("marker should lead the list")
	}
}

func TestAppendProvExactCap(t *testing.T) {
	out := AppendSpans(nil, provN(MaxTraceSpans)...)
	if len(out) != MaxTraceSpans {
		t.Fatalf("got %d entries, want %d", len(out), MaxTraceSpans)
	}
	if out[0].Op == OpTraceDropped {
		t.Fatalf("exact cap should not drop")
	}
}

// TestDecisionFloodKeepsTimingSpans: a broker with thousands of candidate
// ads emits a decision for each; the timing spans already on the trace,
// a full budget of them, all survive, and the decisions keep their own
// budget.
func TestDecisionFloodKeepsTimingSpans(t *testing.T) {
	trace := mkSpans(MaxTraceSpans, 0)
	for _, d := range provN(5000) {
		trace = AppendSpans(trace, d)
	}
	var timing, decisions int
	for _, s := range trace {
		switch {
		case s.Op == OpTraceDropped:
			if want := 5000 - (MaxTraceSpans - 1); s.Dropped != want {
				t.Errorf("marker dropped=%d, want %d", s.Dropped, want)
			}
		case s.Decision != nil:
			decisions++
		default:
			timing++
		}
	}
	if timing != MaxTraceSpans || decisions != MaxTraceSpans-1 {
		t.Fatalf("trace keeps %d timing spans and %d decisions, want %d and %d",
			timing, decisions, MaxTraceSpans, MaxTraceSpans-1)
	}
}

// TestAppendSpansProperties drives AppendSpans with seeded random
// sequences of timing spans, decisions and markers — markers in the trace
// appended to and in the entries appended — and checks after every append
// that each kind stays within its budget, that kept entries plus the
// marker's count account for every input, that the newest entries of
// each kind are the ones kept, and that decisions never displace a timing
// span.
func TestAppendSpansProperties(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		id := int64(0)
		entry := func() TraceSpan {
			id++
			if r.Intn(2) == 0 {
				return TraceSpan{Agent: "a", Op: "op", Start: id}
			}
			return TraceSpan{Agent: "a", Op: OpDecision, Start: id, Decision: &ProvEvent{Kind: ProvMatch}}
		}
		ofKind := func(kind int) TraceSpan {
			e := entry()
			for kindOf(&e) != kind {
				e = entry()
			}
			return e
		}
		batch := func(trace []TraceSpan) []TraceSpan {
			var out []TraceSpan
			n := r.Intn(8)
			if r.Intn(6) == 0 {
				n = r.Intn(200) // a flood
			}
			switch r.Intn(6) {
			case 0:
				// Fill one kind exactly to its budget.
				kind, have := r.Intn(2), 0
				for _, s := range trace {
					if s.Op != OpTraceDropped && kindOf(&s) == kind {
						have++
					}
				}
				for i := have; i < MaxTraceSpans; i++ {
					out = append(out, ofKind(kind))
				}
			case 1, 2:
				// One kind, as a broker's match decisions or a
				// forwarding chain's spans arrive.
				kind := r.Intn(2)
				for i := 0; i < n; i++ {
					out = append(out, ofKind(kind))
				}
			default:
				for i := 0; i < n; i++ {
					out = append(out, entry())
				}
			}
			if r.Intn(4) == 0 {
				// A peer's trace: capped, and maybe carrying a marker.
				out = AppendSpans(nil, out...)
				if r.Intn(2) == 0 {
					out = append([]TraceSpan{{Op: OpTraceDropped, Dropped: 1 + r.Intn(50)}}, out...)
				}
			}
			return out
		}
		var trace []TraceSpan
		for step := 0; step < 40; step++ {
			spans := batch(trace)
			before := append([]TraceSpan(nil), trace...)
			got := AppendSpans(trace, spans...)
			checkAppend(t, seed, step, before, spans, got)
			trace = got
		}
	}
}

// checkAppend holds one AppendSpans result to the properties.
func checkAppend(t *testing.T, seed int64, step int, dst, spans, got []TraceSpan) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	account := func(in ...[]TraceSpan) (kinds [2][]int64, dropped int) {
		for _, list := range in {
			for i := range list {
				if list[i].Op == OpTraceDropped {
					dropped += list[i].Dropped
					continue
				}
				k := kindOf(&list[i])
				kinds[k] = append(kinds[k], list[i].Start)
			}
		}
		return kinds, dropped
	}
	inKinds, inDropped := account(dst, spans)
	outKinds, outDropped := account(got)
	for i, s := range got {
		if s.Op == OpTraceDropped && (i != 0 || s.Dropped <= 0) {
			fail("marker %+v at index %d, want one positive marker leading", s, i)
		}
	}
	if kept, all := len(outKinds[0])+len(outKinds[1])+outDropped, len(inKinds[0])+len(inKinds[1])+inDropped; kept != all {
		fail("kept %d entries plus marker count %d, want %d inputs", len(outKinds[0])+len(outKinds[1]), outDropped, all)
	}
	for k := range outKinds {
		if len(outKinds[k]) > MaxTraceSpans {
			fail("kind %d holds %d entries, budget %d", k, len(outKinds[k]), MaxTraceSpans)
		}
		if len(outKinds[k]) > len(inKinds[k]) {
			fail("kind %d holds %d entries from %d inputs", k, len(outKinds[k]), len(inKinds[k]))
		}
		newest := inKinds[k][len(inKinds[k])-len(outKinds[k]):]
		if fmt.Sprint(outKinds[k]) != fmt.Sprint(newest) {
			fail("kind %d keeps %v, want the newest %v", k, outKinds[k], newest)
		}
	}
	// The marker takes a slot of the kind that overflowed: a kind that
	// lost entries, or that this append added to beside a marker, fits in
	// MaxTraceSpans together with the marker.
	srcKinds, _ := account(spans)
	inMarker := countMarkers(dst)+countMarkers(spans) > 0
	for k := range outKinds {
		lost := len(outKinds[k]) < len(inKinds[k])
		if (lost || inMarker && len(srcKinds[k]) > 0) && len(outKinds[k]) > MaxTraceSpans-1 {
			fail("kind %d keeps %d entries beside the marker, budget %d", k, len(outKinds[k]), MaxTraceSpans)
		}
	}
	// Decisions never displace a timing span: the timing spans kept are
	// those kept with every decision taken out of both inputs, and an
	// append that adds no timing span keeps every one the trace held.
	strip := func(in []TraceSpan) []TraceSpan {
		var out []TraceSpan
		for _, s := range in {
			if s.Decision == nil {
				out = append(out, s)
			}
		}
		return out
	}
	alone, _ := account(AppendSpans(strip(dst), strip(spans)...))
	if fmt.Sprint(alone[0]) != fmt.Sprint(outKinds[0]) {
		fail("timing spans kept %v, without decisions %v", outKinds[0], alone[0])
	}
	dstKinds, _ := account(dst)
	if len(srcKinds[0]) == 0 && len(dstKinds[0]) <= MaxTraceSpans && fmt.Sprint(dstKinds[0]) != fmt.Sprint(outKinds[0]) {
		fail("appending decisions evicted timing spans: had %v, kept %v", dstKinds[0], outKinds[0])
	}
}

func countMarkers(in []TraceSpan) int {
	n := 0
	for _, s := range in {
		if s.Op == OpTraceDropped {
			n++
		}
	}
	return n
}
