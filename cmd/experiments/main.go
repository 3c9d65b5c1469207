// Command experiments regenerates the tables and figures of the paper's
// Section 5 evaluation.
//
//	experiments -run all          # everything (several minutes)
//	experiments -run table3       # one artifact
//	experiments -run fig14 -quick # reduced runs/durations for a fast look
//
// Artifacts: table1 table2 table3 table4 latency fig14 fig15 fig16 fig17
// table5 table6. EXPERIMENTS.md records the reference output and compares
// it with the paper's reported results.
//
//	experiments -run bench        # hot-path benchmarks -> BENCH_broker.json
//	experiments -run traces       # traced multibroker query -> TRACES.txt
//
// The bench and traces artifacts measure this implementation (the
// transport pool, the match cache, the conversation flight recorder),
// not the paper's evaluation, so -run all does not include them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"infosleuth/internal/experiments"
)

func main() {
	var (
		run         = flag.String("run", "all", "comma-separated artifacts to regenerate (all, table1..table6, fig14..fig17, latency, ext-knowledge, bench)")
		quick       = flag.Bool("quick", false, "reduced rounds/durations for a fast pass")
		format      = flag.String("format", "text", "output format: text or csv")
		seed        = flag.Int64("seed", 1999, "base random seed")
		benchOut    = flag.String("bench-out", "BENCH_broker.json", "output path for the bench artifact")
		benchAds    = flag.Int("bench-ads", 400, "repository size for the match-cache benchmark")
		mrqBenchOut = flag.String("mrq-bench-out", "BENCH_mrq.json", "output path for the MRQ fan-out bench artifact")
		tracesOut   = flag.String("traces-out", "TRACES.txt", "output path for the traces artifact")
		explainOut  = flag.String("explain-out", "EXPLAIN.txt", "output path for the explain artifact")
		metricsOut  = flag.String("metrics-out", "METRICS.md", "output path for the metrics catalog")
		fleetOut    = flag.String("fleet-out", "FLEET.txt", "output path for the fleet artifact's dashboard + SLO burn table")
		slowlogOut  = flag.String("slowlog-out", "SLOWLOG.txt", "output path for the fleet artifact's slow-query log")
		scaleOut    = flag.String("scale-out", "BENCH_scale.json", "output path for the scale-sweep artifact")
		subsOut     = flag.String("subs-out", "BENCH_subs.json", "output path for the subscription-pipeline sweep artifact")
	)
	flag.Parse()

	liveOpts := experiments.LiveOptions{}
	simOpts := experiments.SimOptions{Seed: *seed}
	if *quick {
		liveOpts.Rounds = 1
		liveOpts.QueriesPerStream = 3
		simOpts.Runs = 2
		simOpts.DurationSec = 3600
	}

	want := make(map[string]bool)
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	printTable := func(t *experiments.Table) {
		if *format == "csv" {
			fmt.Print(t.CSV())
			fmt.Println()
			return
		}
		fmt.Println(t)
	}
	printFigure := func(f *experiments.Figure) {
		if *format == "csv" {
			fmt.Print(f.CSV())
			fmt.Println()
			return
		}
		fmt.Println(f)
	}

	start := time.Now()
	if sel("table1") {
		printTable(experiments.Table1())
	}
	if sel("table2") {
		printTable(experiments.Table2())
	}
	if sel("table3") {
		_, tbl, err := experiments.Table3(liveOpts)
		if err != nil {
			log.Fatalf("table3: %v", err)
		}
		printTable(tbl)
	}
	if sel("table4") {
		_, tbl, err := experiments.Table4(liveOpts)
		if err != nil {
			log.Fatalf("table4: %v", err)
		}
		printTable(tbl)
	}
	if sel("latency") {
		tbl, err := experiments.LatencySummary(liveOpts)
		if err != nil {
			log.Fatalf("latency: %v", err)
		}
		printTable(tbl)
	}
	if sel("fig14") {
		printFigure(experiments.Fig14(simOpts))
	}
	if sel("fig15") {
		printFigure(experiments.Fig15(simOpts))
	}
	if sel("fig16") {
		printFigure(experiments.Fig16(simOpts))
	}
	if sel("fig17") {
		printFigure(experiments.Fig17(simOpts))
	}
	if sel("ext-knowledge") {
		printFigure(experiments.ExtBrokerKnowledge(simOpts))
	}
	// The hot-path benchmarks measure this implementation, not the
	// paper's evaluation, so "all" does not include them — ask for them
	// explicitly with -run bench.
	if want["bench"] {
		res, err := experiments.WriteBrokerBench(*benchOut, *benchAds)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		fmt.Printf("wrote %s\n", *benchOut)
		fmt.Printf("  transport: pooled %.0f ns/op %.3f dials/call, dial-per-call %.0f ns/op %.3f dials/call (%.1fx fewer dials)\n",
			res.TransportPooled.NsPerOp, res.TransportPooled.DialsPerCall,
			res.TransportDialPerCall.NsPerOp, res.TransportDialPerCall.DialsPerCall,
			res.DialReductionX)
		fmt.Printf("  match (%d ads): uncached %.0f ns/op %d allocs/op, cached %.0f ns/op %d allocs/op (%.1fx speedup)\n",
			res.RepositoryAds,
			res.MatchUncached.NsPerOp, res.MatchUncached.AllocsPerOp,
			res.MatchCached.NsPerOp, res.MatchCached.AllocsPerOp,
			res.CachedSpeedupX)
	}
	// The MRQ fan-out bench rides along with -run bench and also runs
	// standalone as -run mrqbench.
	if want["bench"] || want["mrqbench"] {
		opts := experiments.MRQBenchOptions{}
		if *quick {
			opts.RowsPerFragment = 8
			opts.CallLatency = time.Millisecond
		}
		res, err := experiments.WriteMRQBench(*mrqBenchOut, opts)
		if err != nil {
			log.Fatalf("mrqbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *mrqBenchOut)
		fmt.Printf("  gather (%d fragments, %s/call): serial %.0f ns/op, parallel %.0f ns/op (%.1fx speedup)\n",
			res.Fragments, res.SimulatedCallLatency,
			res.Serial.NsPerOp, res.Parallel.NsPerOp, res.SpeedupX)
		fmt.Printf("  wire bytes/query: %d without pushdown, %d with (%.1fx reduction)\n",
			res.FetchBytesPerOpNoPushdown, res.FetchBytesPerOpPushdown, res.PushdownBytesReductionX)
		fmt.Printf("  semi-join bytes/query: %d full, %d planned (%.1fx reduction)\n",
			res.SemiJoin.FetchBytesPerOpFull, res.SemiJoin.FetchBytesPerOpPlanned, res.SemiJoin.ReductionX)
		fmt.Printf("  aggregate bytes/query: %d full, %d planned (%.1fx reduction)\n",
			res.Aggregate.FetchBytesPerOpFull, res.Aggregate.FetchBytesPerOpPlanned, res.Aggregate.ReductionX)
	}
	// The scale sweep measures the repository from 10k to 1M ads under
	// churn (BENCH_scale.json); explicit-only, like bench. With -quick it
	// doubles as the CI smoke test, and fails on what matters about a
	// growing repository: the p95 must grow sublinearly with the
	// advertisements, and the largest size must sustain scaleFloor
	// searches a second (1M ads did 1.5/s before the class-and-range
	// index, at GOMAXPROCS=1).
	if want["scale"] {
		res, err := experiments.WriteScaleBench(*scaleOut, experiments.ScaleBenchOptions{Quick: *quick, Seed: *seed})
		if err != nil {
			log.Fatalf("scale: %v", err)
		}
		fmt.Printf("wrote %s\n", *scaleOut)
		for _, pt := range res.Points {
			fmt.Printf("  %7d ads: %6.0f searches/s, p95 %8.0fµs, heap %7.1f MB\n",
				pt.Ads, pt.ThroughputPerSec, pt.SearchP95Micros, pt.RepoHeapMB)
		}
		fmt.Printf("  ads grew %.0fx, p95 grew %.1fx (sublinear: %v)\n",
			res.AdsGrowthX, res.P95GrowthX, res.P95Sublinear)
		const scaleFloor = 10_000
		last := res.Points[len(res.Points)-1]
		if !res.P95Sublinear {
			log.Fatalf("scale: ads grew %.0fx and the p95 grew %.1fx: not sublinear",
				res.AdsGrowthX, res.P95GrowthX)
		}
		if last.ThroughputPerSec < scaleFloor {
			log.Fatalf("scale: throughput %.0f/s at %d ads, floor %d/s",
				last.ThroughputPerSec, last.Ads, scaleFloor)
		}
	}
	// The subscription sweep measures the CDC pipeline's indexed standing
	// queries against evaluating all of them (BENCH_subs.json);
	// explicit-only, like bench. With -quick it doubles as the CI smoke
	// test: SubBench fails outright when indexed matching cannot beat
	// evaluate-all, when a stalled subscriber delays a fast one, or when
	// per-subscription heap exceeds its bound.
	if want["subbench"] {
		res, err := experiments.WriteSubBench(*subsOut, experiments.SubBenchOptions{Quick: *quick, Seed: *seed})
		if err != nil {
			log.Fatalf("subbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *subsOut)
		for _, pt := range res.Points {
			fmt.Printf("  %7d subs: %7d indexed evals of %9d evaluate-all (%.2f%%) | reg %6.0f/s | %5.1fµs/change | %4.1f KB/sub | stalled isolated: %v\n",
				pt.Subs, pt.IndexedEvals, pt.EvalAllEvals, pt.EvalFraction*100,
				pt.RegisterPerSec, pt.MutationMicrosPerChange, pt.HeapPerSubKB, pt.StalledIsolated)
		}
		fmt.Printf("  eval fraction at %d subs: %.2f%% (≤5%% bar: %v)\n",
			res.Points[len(res.Points)-1].Subs, res.EvalFractionAtMax*100, res.IndexedWithin5Pct)
	}
	// The traces artifact exercises this implementation's flight recorder,
	// so like bench it only runs when asked for explicitly.
	if want["traces"] {
		art, err := experiments.Traces()
		if err != nil {
			log.Fatalf("traces: %v", err)
		}
		fmt.Print(art.Text)
		if err := os.WriteFile(*tracesOut, []byte(art.Text), 0o644); err != nil {
			log.Fatalf("traces: %v", err)
		}
		fmt.Printf("wrote %s\n", *tracesOut)
	}
	// The explain artifact exercises the decision-provenance layer end to
	// end (match, forward, pushdown, fetch, failover); explicit-only, like
	// traces.
	if want["explain"] {
		art, err := experiments.ExplainDemo()
		if err != nil {
			log.Fatalf("explain: %v", err)
		}
		fmt.Print(art.Text)
		if err := os.WriteFile(*explainOut, []byte(art.Text), 0o644); err != nil {
			log.Fatalf("explain: %v", err)
		}
		fmt.Printf("wrote %s\n", *explainOut)
	}
	// The fleet artifact stages the observability demo (fleet dashboard,
	// SLO burn, tail-sampled slowlog); explicit-only, like traces.
	if want["fleet"] {
		art, err := experiments.Fleet()
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		fmt.Print(art.Text)
		if err := os.WriteFile(*fleetOut, []byte(art.Text), 0o644); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if err := os.WriteFile(*slowlogOut, []byte(art.SlowText), 0o644); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		fmt.Printf("wrote %s and %s (%d pinned traces)\n", *fleetOut, *slowlogOut, art.Pinned)
	}
	// The metrics catalog documents every registered metric family; CI
	// regenerates it and fails on drift.
	if want["metrics"] {
		if err := os.WriteFile(*metricsOut, []byte(experiments.MetricsCatalog()), 0o644); err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if sel("table5") || sel("table6") || all {
		cells := experiments.RobustnessGrid(simOpts)
		if sel("table5") {
			printTable(experiments.Table5(cells))
		}
		if sel("table6") {
			printTable(experiments.Table6(cells))
		}
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
}
