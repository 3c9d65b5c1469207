// Benchmarks regenerating every table and figure of the paper's Section 5
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark performs one reduced-size regeneration per iteration and
// reports the experiment's headline metric with b.ReportMetric; the full-
// size runs (paper-scale durations and repetition counts) live in
// cmd/experiments.
package infosleuth_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/community"
	"infosleuth/internal/constraint"
	"infosleuth/internal/experiments"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resilience"
	"infosleuth/internal/sim"
	"infosleuth/internal/transport"
)

// benchLive are reduced live-experiment options sized for benchmarking.
func benchLive() experiments.LiveOptions {
	return experiments.LiveOptions{
		Rounds:           1,
		QueriesPerStream: 2,
		RowsPerClass:     24,
		CostPerAd:        300 * time.Microsecond,
		RowDelay:         50 * time.Microsecond,
		NetLatency:       500 * time.Microsecond,
	}
}

func benchSim() experiments.SimOptions {
	return experiments.SimOptions{Seed: 1999, Runs: 2, DurationSec: 3600}
}

// BenchmarkTable1QueryStreams runs each Table 1 query stream once through
// a single-broker community (the workload generator behind Tables 2-4).
func BenchmarkTable1QueryStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LiveStreamsOnce(benchLive()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3MultiVsSingle regenerates Table 3 (multibroker vs single
// broker across experiments 1-5) and reports the experiment-5 mean ratio —
// below 1.0 reproduces the paper's loaded-regime result.
func BenchmarkTable3MultiVsSingle(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Table3(benchLive())
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range results[len(results)-1].Ratios {
			sum += r
			n++
		}
		last = sum / float64(n)
	}
	b.ReportMetric(last, "expt5-ratio")
}

// BenchmarkTable4Specialization regenerates Table 4 (experiment 6) and
// reports the mean specialized/unspecialized ratio.
func BenchmarkTable4Specialization(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table4(benchLive())
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range res.Ratios {
			sum += r
			n++
		}
		last = sum / float64(n)
	}
	b.ReportMetric(last, "spec-ratio")
}

// BenchmarkFig14SingleVsMulti regenerates Figure 14 and reports the
// single-broker response at the heaviest load point.
func BenchmarkFig14SingleVsMulti(b *testing.B) {
	var single float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig14(benchSim())
		single = f.Series[0].Y[0]
	}
	b.ReportMetric(single, "single@QF5-sec")
}

// BenchmarkFig15ReplicatedVsSpecialized regenerates Figure 15 and reports
// the specialized advantage at the lightest load point.
func BenchmarkFig15ReplicatedVsSpecialized(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig15(benchSim())
		repl, spec := f.Series[0], f.Series[1]
		last := len(repl.Y) - 1
		advantage = repl.Y[last] / spec.Y[last]
	}
	b.ReportMetric(advantage, "repl/spec@QF30")
}

// BenchmarkFig16HigherRatio regenerates Figure 16 (4 brokers).
func BenchmarkFig16HigherRatio(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig16(benchSim())
		repl, spec := f.Series[0], f.Series[1]
		last := len(repl.Y) - 1
		advantage = repl.Y[last] / spec.Y[last]
	}
	b.ReportMetric(advantage, "repl/spec@QF30")
}

// BenchmarkFig17Scalability regenerates Figure 17 and reports the growth
// factor from the smallest to the largest system at QF=60 — near 1.0-2.0
// reproduces the paper's "levels off" scalability claim.
func BenchmarkFig17Scalability(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		f := experiments.Fig17(experiments.SimOptions{Seed: 1999, Runs: 1, DurationSec: 3600})
		for _, s := range f.Series {
			if s.Label == "QF=60" {
				growth = s.Y[len(s.Y)-1] / s.Y[0]
			}
		}
	}
	b.ReportMetric(growth, "growth-225/25")
}

// BenchmarkTable5ReplyRate regenerates the Table 5 reply-rate grid and
// reports the worst-case cell (fastest failures, redundancy 1).
func BenchmarkTable5ReplyRate(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cells := experiments.RobustnessGrid(experiments.SimOptions{Seed: 1999, Runs: 1, DurationSec: 2 * 3600})
		for _, c := range cells {
			if c.FailureMeanSec == 900 && c.Redundancy == 1 {
				worst = c.ReplyRate
			}
		}
	}
	b.ReportMetric(worst*100, "reply-pct@900s-r1")
}

// BenchmarkTable6Robustness regenerates the Table 6 success-rate grid and
// reports the redundancy-5 success under the fastest failures (the
// paper's "you can always find the agent" column).
func BenchmarkTable6Robustness(b *testing.B) {
	var full float64
	for i := 0; i < b.N; i++ {
		cells := experiments.RobustnessGrid(experiments.SimOptions{Seed: 1999, Runs: 1, DurationSec: 2 * 3600})
		for _, c := range cells {
			if c.FailureMeanSec == 900 && c.Redundancy == 5 {
				full = c.SuccessRate
			}
		}
	}
	b.ReportMetric(full*100, "success-pct@900s-r5")
}

// --- Ablations beyond the paper (DESIGN.md section 5) ---

// ablationCommunity builds a 4-broker consortium with 12 resources for the
// propagation/pruning/follow ablations.
func ablationCommunity(b *testing.B, opt func(i int, cfg *broker.Config)) (*community.Community, *ontology.Query) {
	b.Helper()
	c, err := community.New(community.Config{
		Brokers:       4,
		BrokerOptions: opt,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		db := relational.NewDatabase()
		class := fmt.Sprintf("C%d", i%6+1)
		if _, err := relational.GenerateGeneric(db, class, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := c.AddResource(ctx, community.ResourceSpec{
			Name: fmt.Sprintf("RA%02d", i), DB: db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{class}},
			Brokers:  []string{c.Brokers[i%4].Addr()},
		}); err != nil {
			b.Fatal(err)
		}
	}
	q := &ontology.Query{
		Type:     ontology.TypeResource,
		Ontology: "generic",
		Classes:  []string{"C2"},
		Policy:   ontology.SearchPolicy{HopCount: 2, Follow: ontology.FollowAll},
	}
	return c, q
}

func runBrokerQueries(b *testing.B, c *community.Community, q *ontology.Query) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := c.Brokers[i%4].Search(ctx, &kqml.BrokerQuery{Query: q}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloodVsSpanningTree compares the default flood propagation with
// origin-only propagation (the paper's proposed spanning-tree reduction).
func BenchmarkFloodVsSpanningTree(b *testing.B) {
	for _, mode := range []struct {
		name string
		prop broker.PropagationMode
	}{
		{"flood", broker.Flood},
		{"origin-only", broker.OriginOnly},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c, q := ablationCommunity(b, func(i int, cfg *broker.Config) {
				cfg.Propagation = mode.prop
			})
			defer c.Close()
			b.ResetTimer()
			runBrokerQueries(b, c, q)
			var msgs int64
			for _, br := range c.Brokers {
				msgs += br.Stats.InterBrokerSent.Load()
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "interbroker-msgs/query")
		})
	}
}

// BenchmarkBrokerPruning compares contacting all peers with pruning peers
// whose advertised specializations cannot match (Section 4.1's untested
// "this sort of specialization would only help" claim).
func BenchmarkBrokerPruning(b *testing.B) {
	for _, mode := range []struct {
		name    string
		pruning bool
	}{
		{"contact-all", false},
		{"pruned", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c, q := ablationCommunity(b, func(i int, cfg *broker.Config) {
				cfg.PeerPruning = mode.pruning
				// Each broker specializes in the classes of the
				// resources it hosts (i, i+4, i+8 -> classes i%6+1...).
				for _, r := range []int{i, i + 4, i + 8} {
					cfg.SpecializationClasses = append(cfg.SpecializationClasses,
						fmt.Sprintf("C%d", r%6+1))
				}
			})
			defer c.Close()
			b.ResetTimer()
			runBrokerQueries(b, c, q)
			var msgs int64
			for _, br := range c.Brokers {
				msgs += br.Stats.InterBrokerSent.Load()
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "interbroker-msgs/query")
		})
	}
}

// BenchmarkFollowOption compares the until-match and all-repositories
// follow options for single-agent lookups.
func BenchmarkFollowOption(b *testing.B) {
	for _, mode := range []struct {
		name   string
		follow ontology.FollowOption
	}{
		{"until-match", ontology.FollowUntilMatch},
		{"all", ontology.FollowAll},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c, q := ablationCommunity(b, nil)
			defer c.Close()
			qq := q.Clone()
			qq.Limit = 1
			qq.Policy.Follow = mode.follow
			b.ResetTimer()
			runBrokerQueries(b, c, qq)
		})
	}
}

// --- Hot-path benchmarks (transport pool + match cache) ---

// benchWorld is the ontology world shared by the hot-path benchmarks.
func benchWorld() *ontology.World {
	return ontology.NewWorld(ontology.Generic())
}

// benchAds builds n resource advertisements spread over the generic
// ontology's classes, each with a distinct range constraint so the
// matcher exercises constraint intersection, not just class lookup.
func benchAds(n int) []*ontology.Advertisement {
	ads := make([]*ontology.Advertisement, 0, n)
	for i := 0; i < n; i++ {
		class := fmt.Sprintf("C%d", i%6+1)
		ads = append(ads, &ontology.Advertisement{
			Name:             fmt.Sprintf("bench-ra-%03d", i),
			Address:          fmt.Sprintf("inproc://bench-ra-%03d", i),
			Type:             ontology.TypeResource,
			CommLanguages:    []string{ontology.LangKQML},
			ContentLanguages: []string{ontology.LangSQL2},
			Conversations:    []string{ontology.ConvAskAll},
			Capabilities:     []string{ontology.CapRelationalQueryProcessing},
			Content: []ontology.Fragment{{
				Ontology:    "generic",
				Classes:     []string{class},
				Constraints: constraint.MustParse(fmt.Sprintf("%s.a between %d and %d", class, i*10, i*10+500)),
			}},
		})
	}
	return ads
}

// benchQuery is the repeated hot-path query: class-constrained with a
// capability requirement, so ranking has something to score.
func benchQuery() *ontology.Query {
	return &ontology.Query{
		Type:         ontology.TypeResource,
		Ontology:     "generic",
		Classes:      []string{"C2"},
		Capabilities: []string{ontology.CapRelationalQueryProcessing},
	}
}

// BenchmarkPooledCall measures one full broker call over TCP with the
// connection pool on (default) and off (dial-per-call, the pre-pool
// behavior), reporting actual TCP dials per call. The third mode routes
// the pooled call through a single-attempt resilience policy — the
// guardrail that keeps the policy wrapper's overhead invisible next to a
// network round trip.
func BenchmarkPooledCall(b *testing.B) {
	for _, mode := range []struct {
		name    string
		maxIdle int
		policy  bool
	}{
		{"pooled", 0, false},
		{"dial-per-call", -1, false},
		{"pooled+nop-policy", 0, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			op := brokerCallOp(b, mode.maxIdle, mode.policy)
			before := transport.SnapshotPoolStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			after := transport.SnapshotPoolStats()
			b.ReportMetric(float64(after.Dials-before.Dials)/float64(b.N), "dials/call")
		})
	}
}

// brokerCallOp starts a broker over TCP with 32 advertisements and returns
// one broker query against it. TestPooledCallAllocs holds the pooled mode
// to its allocation ceiling.
func brokerCallOp(tb testing.TB, maxIdle int, policy bool) func() {
	tr := &transport.TCP{MaxIdleConnsPerHost: maxIdle}
	br, err := broker.New(broker.Config{
		Name:      "bench-broker",
		Address:   "tcp://127.0.0.1:0",
		Transport: tr,
		World:     benchWorld(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := br.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { br.Stop() })
	for _, ad := range benchAds(32) {
		if err := br.Repository().Put(ad); err != nil {
			tb.Fatal(err)
		}
	}
	msg := kqml.New(kqml.AskAll, "bench-client", &kqml.BrokerQuery{Query: benchQuery()})
	call := resilience.CallFunc(tr.Call)
	if policy {
		call = resilience.Disabled().WrapCall(tr.Call)
	}
	return func() {
		if _, err := call(context.Background(), br.Addr(), msg); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkMatchCached measures the generation-invalidated match cache
// over a 400-advertisement repository and reports the speedup against
// the uncached engine measured in the same process.
func BenchmarkMatchCached(b *testing.B) {
	repo := broker.NewRepository()
	for _, ad := range benchAds(400) {
		if err := repo.Put(ad); err != nil {
			b.Fatal(err)
		}
	}
	q := benchQuery()
	direct := &broker.DirectMatcher{World: benchWorld()}
	cached := broker.NewCachedMatcher(direct, 0)

	// Uncached baseline, timed outside the benchmark clock.
	const probes = 64
	start := time.Now()
	for i := 0; i < probes; i++ {
		if _, err := direct.Match(repo, q); err != nil {
			b.Fatal(err)
		}
	}
	uncachedPerOp := time.Since(start) / probes

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cached.Match(repo, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cachedPerOp := b.Elapsed() / time.Duration(b.N); cachedPerOp > 0 {
		b.ReportMetric(float64(uncachedPerOp)/float64(cachedPerOp), "speedup-x")
	}
}

// BenchmarkMatchUncached is the baseline for BenchmarkMatchCached: the
// direct engine over the same 400-advertisement repository (also the
// Section 5 modeling mode, DisableMatchCache).
func BenchmarkMatchUncached(b *testing.B) {
	repo := broker.NewRepository()
	for _, ad := range benchAds(400) {
		if err := repo.Put(ad); err != nil {
			b.Fatal(err)
		}
	}
	q := benchQuery()
	direct := &broker.DirectMatcher{World: benchWorld()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := direct.Match(repo, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: one 2-hour
// specialized-brokering run per iteration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{
			Seed: int64(i), Brokers: 8, Resources: 96,
			Strategy: sim.Specialized, MeanQueryIntervalSec: 30,
			DurationSec: 2 * 3600,
		})
	}
}

// BenchmarkExtBrokerKnowledge runs the Section 5.2.2 simulation the paper
// proposed but did not conduct: broker capability advertisements let the
// origin rule peers out in advance. Reports the response-time improvement
// factor at QF=10.
func BenchmarkExtBrokerKnowledge(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		f := experiments.ExtBrokerKnowledge(benchSim())
		plain, pruned := f.Series[0], f.Series[1]
		improvement = plain.Y[0] / pruned.Y[0]
	}
	b.ReportMetric(improvement, "plain/pruned@QF10")
}
