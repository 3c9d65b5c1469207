package experiments

import (
	"strings"
	"testing"

	"infosleuth/internal/kqml"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
)

// TestTracesArtifact is the acceptance check for the flight recorder: one
// traced query through the two-broker community must assemble into a
// single tree holding the user-agent span, broker search hops on at least
// two brokers with at least one inter-broker forward, and the resource
// query spans, with nothing dropped.
func TestTracesArtifact(t *testing.T) {
	art, err := Traces()
	if err != nil {
		t.Fatal(err)
	}
	if art.TraceID == "" || art.Tree == nil {
		t.Fatalf("artifact incomplete: %+v", art)
	}
	sum := art.Tree.Summary
	if sum.ID != art.TraceID {
		t.Errorf("tree summary id %q != trace id %q", sum.ID, art.TraceID)
	}
	if sum.Dropped != 0 {
		t.Errorf("trace dropped %d spans; the artifact run should stay within bounds", sum.Dropped)
	}
	if sum.Errors != 0 {
		t.Errorf("trace recorded %d errors", sum.Errors)
	}

	var flat []*recorder.Node
	var walk func(ns []*recorder.Node)
	walk = func(ns []*recorder.Node) {
		for _, n := range ns {
			flat = append(flat, n)
			walk(n.Children)
		}
	}
	walk(art.Tree.Roots)

	count := func(op string) (n, maxHop int) {
		agents := map[string]struct{}{}
		for _, node := range flat {
			if node.Op == op {
				n++
				agents[node.Agent] = struct{}{}
				if node.Hop > maxHop {
					maxHop = node.Hop
				}
			}
		}
		return n, maxHop
	}

	if n, _ := count(telemetry.OpUserSubmit); n != 1 {
		t.Errorf("tree holds %d useragent.submit spans, want 1", n)
	}
	searches, maxHop := count(kqml.OpBrokerSearch)
	if searches < 2 {
		t.Errorf("tree holds %d broker.search spans, want >= 2 (entry + forward)", searches)
	}
	if maxHop < 1 {
		t.Errorf("max broker.search hop = %d, want >= 1 (an inter-broker forward)", maxHop)
	}
	if n, _ := count(kqml.OpResourceQuery); n < 1 {
		t.Errorf("tree holds %d resource.query spans, want >= 1", n)
	}

	// The user-agent submission is the single root of the assembled tree.
	if len(art.Tree.Roots) != 1 || art.Tree.Roots[0].Op != telemetry.OpUserSubmit {
		ops := make([]string, len(art.Tree.Roots))
		for i, r := range art.Tree.Roots {
			ops[i] = r.Op
		}
		t.Errorf("tree roots = %v, want a single useragent.submit", ops)
	}

	if !strings.Contains(art.Text, "useragent.submit") || !strings.Contains(art.Text, "recorder held") {
		t.Errorf("artifact text incomplete:\n%s", art.Text)
	}
	if len(art.Summaries) == 0 {
		t.Error("artifact has no trace summaries")
	}
}
