package experiments

import (
	"context"
	"fmt"

	"infosleuth/internal/community"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
)

// ExplainArtifact is the output of the explain artifact: one traced
// multibroker query with decision provenance and the rendered explain
// report the recorder serves at /traces/{id}/explain.
type ExplainArtifact struct {
	// TraceID identifies the traced conversation.
	TraceID string
	// Report is the assembled decision provenance: match decisions,
	// forwards, pushdown, per-fragment fetches, failovers, and the span
	// tree.
	Report *recorder.Explain
	// Text is the rendered report, as printed by `experiments -run
	// explain` and `isquery -explain`.
	Text string
}

// ExplainDemo runs one traced, constrained user query through a community
// staged so that every decision class shows up in the report: two brokers
// (the second fragment is only reachable through an inter-broker forward),
// a redundantly advertised fragment whose primary resource is dead by
// query time (the fetch fails over to the covering replica), and a WHERE
// clause the MRQ pushes down to the resources. The returned artifact is
// the end-to-end answer to "why did I get this result?".
func ExplainDemo() (*ExplainArtifact, error) {
	rec := recorder.New()
	prev := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prev)

	c, err := community.New(community.Config{Brokers: 2})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()

	// Fragment 1, advertised twice to broker 1 with identical data: the
	// primary dies before the query, so its loss is absorbed by the
	// covering replica — a failover decision in the report.
	for _, name := range []string{"R1 resource agent", "R1 replica"} {
		db := relational.NewDatabase()
		if _, err := relational.GenerateGeneric(db, "C1", 20, 1); err != nil {
			return nil, err
		}
		if _, err := c.AddResource(ctx, community.ResourceSpec{
			Name:     name,
			DB:       db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C1"}},
			Brokers:  []string{c.Brokers[0].Addr()},
		}); err != nil {
			return nil, err
		}
	}
	// Fragment 2, pinned to broker 2: reaching it requires an
	// inter-broker forward — forward decisions in the report.
	db2 := relational.NewDatabase()
	if _, err := relational.GenerateGeneric(db2, "C1", 20, 2); err != nil {
		return nil, err
	}
	if _, err := c.AddResource(ctx, community.ResourceSpec{
		Name:     "R2 resource agent",
		DB:       db2,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C1"}},
		Brokers:  []string{c.Brokers[1].Addr()},
	}); err != nil {
		return nil, err
	}
	if _, err := c.AddMRQ(ctx, "MRQ agent", "generic"); err != nil {
		return nil, err
	}
	user, err := c.AddUser(ctx, "user agent", "generic")
	if err != nil {
		return nil, err
	}

	// Kill the primary now that its advertisement is registered: the
	// brokers still recommend it, the fetch fails, and the replica covers.
	c.Resources[0].Stop()

	// The WHERE clause is pushed down to each resource — pushdown
	// decisions in the report.
	_, traceID, err := user.SubmitTraced(ctx, "SELECT id, a FROM C1 WHERE a >= 100")
	if err != nil {
		return nil, err
	}
	report, ok := rec.Explain(traceID)
	if !ok {
		return nil, fmt.Errorf("experiments: trace %s not in the recorder", traceID)
	}
	return &ExplainArtifact{TraceID: traceID, Report: report, Text: report.Format()}, nil
}
