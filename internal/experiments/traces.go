package experiments

import (
	"context"
	"fmt"
	"strings"

	"infosleuth/internal/community"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
)

// TraceArtifact is the output of the traces artifact: one traced
// multibroker query and the flight recorder's view of it.
type TraceArtifact struct {
	// TraceID identifies the traced conversation.
	TraceID string
	// Tree is the assembled trace: user agent at the root, broker search
	// hops and resource queries nested beneath.
	Tree *recorder.Tree
	// Summaries lists every trace the recorder held at the end of the
	// run (the traced query plus any advertisement-time conversations).
	Summaries []recorder.Summary
	// Text is the rendered tree, as printed by `experiments -run traces`
	// and `isquery -trace-dump`.
	Text string
}

// Traces runs one traced user query through a two-broker community whose
// resources are pinned to different brokers, so answering requires an
// inter-broker forward (Section 4.3): the user agent locates an MRQ
// agent, the MRQ's per-class broker search floods from its entry broker
// to the peer, and both brokers' resources contribute fragments. The
// returned artifact holds the assembled trace tree — user-agent span,
// broker hops at depth 0 and 1, and resource query spans in one
// structure.
func Traces() (*TraceArtifact, error) {
	rec := recorder.New()
	prev := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prev)

	c, err := community.New(community.Config{Brokers: 2})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()

	// One class, two horizontal fragments, each pinned to its own broker:
	// whichever broker a search enters at, the other fragment is only
	// reachable through a forward.
	for i := 0; i < 2; i++ {
		db := relational.NewDatabase()
		if _, err := relational.GenerateGeneric(db, "C1", 20, int64(i+1)); err != nil {
			return nil, err
		}
		_, err := c.AddResource(ctx, community.ResourceSpec{
			Name:     fmt.Sprintf("R%d resource agent", i+1),
			DB:       db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C1"}},
			Brokers:  []string{c.Brokers[i].Addr()},
		})
		if err != nil {
			return nil, err
		}
	}
	if _, err := c.AddMRQ(ctx, "MRQ agent", "generic"); err != nil {
		return nil, err
	}
	user, err := c.AddUser(ctx, "user agent", "generic")
	if err != nil {
		return nil, err
	}

	_, traceID, err := user.SubmitTraced(ctx, "SELECT * FROM C1")
	if err != nil {
		return nil, err
	}
	tree, ok := rec.Trace(traceID)
	if !ok {
		return nil, fmt.Errorf("experiments: trace %s not in the recorder", traceID)
	}

	var b strings.Builder
	b.WriteString(tree.Format())
	sums := rec.Summaries(0)
	fmt.Fprintf(&b, "\nrecorder held %d trace(s), %d ring drops\n", len(sums), rec.Drops())
	return &TraceArtifact{
		TraceID:   traceID,
		Tree:      tree,
		Summaries: sums,
		Text:      b.String(),
	}, nil
}
