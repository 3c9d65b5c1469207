package community

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"infosleuth/internal/broker"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resilience"
	"infosleuth/internal/telemetry"
)

// TestProfileResolve pins the resolve table of DESIGN.md "Profiles": each
// profile yields exactly these broker and MRQ settings and nothing else.
func TestProfileResolve(t *testing.T) {
	policy := &resilience.Policy{}
	cases := []struct {
		name    string
		cfg     Config
		broker  broker.Config
		mrq     mrq.Config
		wantErr string
	}{
		{name: "production", cfg: Config{}, mrq: mrq.Config{Planner: true}},
		{name: "production with a call policy", cfg: Config{CallPolicy: policy}, mrq: mrq.Config{Planner: true}},
		{
			name:   "paper-faithful",
			cfg:    Config{Profile: PaperFaithful},
			broker: broker.Config{DisableMatchCache: true},
			mrq:    mrq.Config{MaxFanout: 1},
		},
		{name: "paper-faithful with a call policy", cfg: Config{Profile: PaperFaithful, CallPolicy: policy}, wantErr: "CallPolicy"},
		{name: "unknown profile", cfg: Config{Profile: Profile(7)}, wantErr: "unknown profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, m, err := tc.cfg.resolve()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				if _, err := New(tc.cfg); err == nil {
					t.Error("New accepted a config resolve refuses")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b, tc.broker) {
				t.Errorf("broker settings = %+v, want %+v", b, tc.broker)
			}
			if !reflect.DeepEqual(m, tc.mrq) {
				t.Errorf("mrq settings = %+v, want %+v", m, tc.mrq)
			}
		})
	}
}

// counterSum adds every series of the metric families whose name starts
// with prefix.
func counterSum(prefix string) int64 {
	var total int64
	for name, series := range telemetry.Default.Snapshot() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, v := range series {
			if n, ok := v.(int64); ok {
				total += n
			}
		}
	}
	return total
}

// profileRun is what one profile did with the test workload: the rendered
// answers, how far the match-cache and planner counters moved, and how
// many searches the brokers served for each query.
type profileRun struct {
	answers                                 []string
	cacheHits, cacheOps, planOps, semiJoins int64
	searches                                []int64
}

// runProfile builds the same community under one profile (C4 split
// row-wise over two resources, C1 and C2 on one each) and runs a
// two-fragment select twice and a two-class join once.
func runProfile(t *testing.T, p Profile) profileRun {
	t.Helper()
	ctx := context.Background()
	c, err := New(Config{Profile: p, Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	add := func(name, class, prefix string, rows int) {
		db := relational.NewDatabase()
		if _, err := generateGenericWithPrefix(db, class, rows, prefix); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddResource(ctx, ResourceSpec{
			Name: name, DB: db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{class}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("RA-C4-left", "C4", "left", 12)
	add("RA-C4-right", "C4", "right", 9)
	add("RA-C1", "C1", "one", 3)
	add("RA-C2", "C2", "two", 40)
	if _, err := c.AddMRQ(ctx, "MRQ agent", "generic"); err != nil {
		t.Fatal(err)
	}
	user, err := c.AddUser(ctx, "user", "generic")
	if err != nil {
		t.Fatal(err)
	}

	readCache := func() int64 {
		return counterSum("infosleuth_broker_match_cache")
	}
	hits := func() int64 {
		n, _ := telemetry.Default.Snapshot()["infosleuth_broker_match_cache_total"]["hit"].(int64)
		return n
	}
	before := profileRun{cacheHits: hits(), cacheOps: readCache(),
		planOps: counterSum("infosleuth_mrq_plan_"), semiJoins: mrq.SnapshotPlanStats().SemiJoins}
	var answers []string
	served := func() int64 {
		var n int64
		for _, b := range c.Brokers {
			n += b.Stats.QueriesServed.Load()
		}
		return n
	}
	var searches []int64

	for _, sql := range []string{
		"SELECT * FROM C4 ORDER BY id",
		"SELECT * FROM C4 ORDER BY id",
		"SELECT C1.id, C2.id, C2.a FROM C1, C2 WHERE C1.b = C2.b ORDER BY id",
	} {
		n := served()
		res, err := user.Submit(ctx, sql)
		if err != nil {
			t.Fatalf("%v: %s: %v", p, sql, err)
		}
		searches = append(searches, served()-n)
		answers = append(answers, fmt.Sprintf("%s\n%s", sql, res.String()))
	}
	return profileRun{
		answers:   answers,
		searches:  searches,
		cacheHits: hits() - before.cacheHits,
		cacheOps:  readCache() - before.cacheOps,
		planOps:   counterSum("infosleuth_mrq_plan_") - before.planOps,
		semiJoins: mrq.SnapshotPlanStats().SemiJoins - before.semiJoins,
	}
}

// TestProfilesAnswerAlikeAndEngageTheirMechanisms: the profiles differ in
// how an answer is produced, never in the answer. Under PaperFaithful the
// match cache and the planner are not merely unused but absent (their
// counters stand still) and every query reaches a broker; under
// Production the repeated query asks no broker, because the user agent
// and the MRQ answer it from their located sets, and the join is planned
// as a semi-join.
func TestProfilesAnswerAlikeAndEngageTheirMechanisms(t *testing.T) {
	paper := runProfile(t, PaperFaithful)
	if paper.cacheOps != 0 {
		t.Errorf("paper-faithful moved the match-cache counters by %d (%d hits)", paper.cacheOps, paper.cacheHits)
	}
	if paper.planOps != 0 {
		t.Errorf("paper-faithful moved the infosleuth_mrq_plan_* counters by %d", paper.planOps)
	}

	for i, n := range paper.searches {
		if n == 0 {
			t.Errorf("paper-faithful: query %d reached no broker", i)
		}
	}

	prod := runProfile(t, Production)
	if prod.searches[0] == 0 || prod.searches[1] != 0 {
		t.Errorf("production: broker searches per query %v, want the second identical query to ask none", prod.searches)
	}
	if prod.semiJoins != 1 {
		t.Errorf("production: semi-join rewrites = %d, want 1", prod.semiJoins)
	}

	if !reflect.DeepEqual(paper.answers, prod.answers) {
		t.Errorf("answers differ between profiles:\npaper-faithful:\n%s\nproduction:\n%s",
			strings.Join(paper.answers, "\n"), strings.Join(prod.answers, "\n"))
	}
	if first := paper.answers[0]; !strings.Contains(first, "left") || !strings.Contains(first, "right") {
		t.Errorf("the select did not gather both C4 fragments:\n%s", first)
	}
}
