package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"infosleuth/internal/community"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/slo"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
)

// FleetArtifact is the output of the fleet artifact: a staged multibroker
// community watched by a fleet monitor, with a deliberately slowed
// resource whose queries land in the tail-sampled slowlog and burn the
// declared SLO budget.
type FleetArtifact struct {
	// Text is the fleet dashboard plus the SLO burn table (FLEET.txt).
	Text string
	// SlowText is the slow-query log with explain reports (SLOWLOG.txt).
	SlowText string
	// Pinned is how many traces the slowlog holds.
	Pinned int
}

// Fleet stages the observability demo: a two-broker community with a
// fast resource and a deliberately slowed one, always-on tail sampling
// via an installed flight recorder, an SLO tracker on the MRQ run
// latency, and a fleet monitor that discovers every member through the
// brokers and polls them over the monitor ontology. A warm-up of fast
// queries settles the per-operation p99 estimators, then queries against
// the slow resource blow past them — pinning their traces (with explain
// reports) into the slowlog and driving the SLO burn rate over zero.
//
// Because every member runs in one process here, they share the
// process-global telemetry registry: the per-member counter/histogram
// numbers on the dashboard coincide. What the artifact demonstrates is
// the over-KQML machinery — discovery, per-member polling, liveness —
// which in a daemon-per-process deployment carries each process's own
// registry.
func Fleet() (*FleetArtifact, error) {
	rec := recorder.New()
	prevRec := telemetry.SetSpanRecorder(rec)
	defer telemetry.SetSpanRecorder(prevRec)

	tracker := slo.NewTracker([]slo.Objective{
		{Op: telemetry.OpMRQRun, LatencyTarget: 25 * time.Millisecond, ErrorBudget: slo.DefaultErrorBudget},
	})
	prevObs := telemetry.SetRootObserver(telemetry.MultiRootObserver{rec, tracker})
	defer telemetry.SetRootObserver(prevObs)

	c, err := community.New(community.Config{Brokers: 2})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()

	// A fast resource on broker 1 and a slow one on broker 2: the per-row
	// delay models a repository that has degraded (an overloaded database,
	// a saturated link), the failure the slowlog exists to catch.
	fastDB := relational.NewDatabase()
	if _, err := relational.GenerateGeneric(fastDB, "C1", 40, 1); err != nil {
		return nil, err
	}
	if _, err := c.AddResource(ctx, community.ResourceSpec{
		Name:     "fast resource agent",
		DB:       fastDB,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C1"}},
		Brokers:  []string{c.Brokers[0].Addr()},
	}); err != nil {
		return nil, err
	}
	slowDB := relational.NewDatabase()
	if _, err := relational.GenerateGeneric(slowDB, "C2", 50, 2); err != nil {
		return nil, err
	}
	if _, err := c.AddResource(ctx, community.ResourceSpec{
		Name:             "slow resource agent",
		DB:               slowDB,
		Fragment:         ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
		Brokers:          []string{c.Brokers[1].Addr()},
		QueryDelayPerRow: time.Millisecond,
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

	// Warm up the p99 estimators on the fast path (past telemetry's
	// warm-up gate), then hit the slow resource: those runs exceed the
	// settled thresholds and the 25 ms MRQ objective.
	for i := 0; i < 80; i++ {
		if _, err := user.Submit(ctx, "SELECT * FROM C1"); err != nil {
			return nil, fmt.Errorf("experiments: warm-up query %d: %w", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := user.Submit(ctx, "SELECT * FROM C2"); err != nil {
			return nil, fmt.Errorf("experiments: slow query %d: %w", i, err)
		}
	}

	// The fleet monitor discovers the whole community through the brokers
	// (one unrestricted service query) and polls each member once.
	fa, err := c.AddFleet(ctx, "fleet monitor")
	if err != nil {
		return nil, err
	}
	if err := fa.Discover(ctx); err != nil {
		return nil, err
	}
	fa.PollOnce(ctx)

	var b strings.Builder
	b.WriteString(fa.Dashboard())
	b.WriteString("\n")
	b.WriteString(tracker.Format())
	entries := rec.Slowlog(0)
	fmt.Fprintf(&b, "\nslowlog holds %d pinned trace(s); see SLOWLOG.txt\n", len(entries))
	return &FleetArtifact{
		Text:     b.String(),
		SlowText: recorder.FormatSlowlog(entries),
		Pinned:   len(entries),
	}, nil
}
