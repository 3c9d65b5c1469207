// Command experiments regenerates the tables and figures of the paper's
// Section 5 evaluation.
//
//	experiments -run all          # every Section 5 artifact (several minutes)
//	experiments -run table3       # one artifact
//	experiments -run fig14 -quick # reduced runs/durations for a fast look
//
// Section 5 artifacts, which -run all regenerates: table1 table2 table3
// table4 latency fig14 fig15 fig16 fig17 ext-knowledge table5 table6.
// EXPERIMENTS.md records the reference output and compares it with the
// paper's reported results.
//
//	experiments -run traces       # traced multibroker query -> TRACES.txt
//	experiments -run explain      # decision provenance -> EXPLAIN.txt
//	experiments -run fleet        # fleet dashboard and slowlog -> FLEET.txt, SLOWLOG.txt
//	experiments -run metrics      # metric catalog -> METRICS.md
//
// These four exercise this implementation's observability, not the
// paper's evaluation, so -run all does not include them. An unknown name
// is an error that lists the known ones. The implementation's own
// performance is measured end to end by the benchmark module
// (benchmark/README.md).
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

// artifacts lists every name -run accepts besides "all", in run order.
// inAll marks the Section 5 artifacts that "all" selects.
var artifacts = []struct {
	name  string
	inAll bool
}{
	{"table1", true}, {"table2", true}, {"table3", true}, {"table4", true},
	{"latency", true}, {"fig14", true}, {"fig15", true}, {"fig16", true},
	{"fig17", true}, {"ext-knowledge", true},
	{"traces", false}, {"explain", false}, {"fleet", false}, {"metrics", false},
	{"table5", true}, {"table6", true},
}

// artifactNames is the -run vocabulary, for the flag help and errors.
func artifactNames() string {
	names := []string{"all"}
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	return strings.Join(names, ", ")
}

// selectArtifacts parses a -run list into the set of artifacts to run.
func selectArtifacts(list string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name == "all" {
			for _, a := range artifacts {
				if a.inAll {
					want[a.name] = true
				}
			}
			continue
		}
		known := false
		for _, a := range artifacts {
			known = known || a.name == name
		}
		if !known {
			return nil, fmt.Errorf("unknown artifact %q; known: %s", name, artifactNames())
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	var (
		run        = flag.String("run", "all", "comma-separated artifacts to regenerate: "+artifactNames())
		quick      = flag.Bool("quick", false, "reduced rounds/durations for a fast pass")
		format     = flag.String("format", "text", "output format: text or csv")
		seed       = flag.Int64("seed", 1999, "base random seed")
		tracesOut  = flag.String("traces-out", "TRACES.txt", "output path for the traces artifact")
		explainOut = flag.String("explain-out", "EXPLAIN.txt", "output path for the explain artifact")
		metricsOut = flag.String("metrics-out", "METRICS.md", "output path for the metrics catalog")
		fleetOut   = flag.String("fleet-out", "FLEET.txt", "output path for the fleet artifact's dashboard + SLO burn table")
		slowlogOut = flag.String("slowlog-out", "SLOWLOG.txt", "output path for the fleet artifact's slow-query log")
	)
	flag.Parse()
	want, err := selectArtifacts(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	liveOpts := experiments.LiveOptions{}
	simOpts := experiments.SimOptions{Seed: *seed}
	if *quick {
		liveOpts.Rounds = 1
		liveOpts.QueriesPerStream = 3
		simOpts.Runs = 2
		simOpts.DurationSec = 3600
	}

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
	if want["table1"] {
		printTable(experiments.Table1())
	}
	if want["table2"] {
		printTable(experiments.Table2())
	}
	if want["table3"] {
		_, tbl, err := experiments.Table3(liveOpts)
		if err != nil {
			log.Fatalf("table3: %v", err)
		}
		printTable(tbl)
	}
	if want["table4"] {
		_, tbl, err := experiments.Table4(liveOpts)
		if err != nil {
			log.Fatalf("table4: %v", err)
		}
		printTable(tbl)
	}
	if want["latency"] {
		tbl, err := experiments.LatencySummary(liveOpts)
		if err != nil {
			log.Fatalf("latency: %v", err)
		}
		printTable(tbl)
	}
	if want["fig14"] {
		printFigure(experiments.Fig14(simOpts))
	}
	if want["fig15"] {
		printFigure(experiments.Fig15(simOpts))
	}
	if want["fig16"] {
		printFigure(experiments.Fig16(simOpts))
	}
	if want["fig17"] {
		printFigure(experiments.Fig17(simOpts))
	}
	if want["ext-knowledge"] {
		printFigure(experiments.ExtBrokerKnowledge(simOpts))
	}
	// The traces artifact exercises this implementation's flight recorder,
	// so it only runs when asked for explicitly.
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
	if want["table5"] || want["table6"] {
		cells := experiments.RobustnessGrid(simOpts)
		if want["table5"] {
			printTable(experiments.Table5(cells))
		}
		if want["table6"] {
			printTable(experiments.Table6(cells))
		}
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
}
