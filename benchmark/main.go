// Command benchmark is the repository's end-to-end, per-layer benchmark:
// four workloads over real loopback-TCP communities in the production
// profile, the same end-to-end metrics on each, and a traced run that
// breaks an op's time down by layer. README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"infosleuth/internal/telemetry"
)

// workload is one of the four benchmark workloads.
type workload interface {
	name() string
	// setup builds the community in e, loads it, and warms it up; it is
	// what setup_s times.
	setup(e *env) error
	paced(dur time.Duration) phaseResult
	saturate(dur time.Duration) phaseResult
	// traced drives one client, in alternating untraced and traced blocks.
	traced(tr *tracer, dur time.Duration) tracedResult
	layers() *layerHandles
	// mechanism returns what the workload no longer exercises, given
	// the program's counters over the measured ops.
	mechanism(d counters, ops int) []string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wlQueryPoint:
		return newQueryWorkload(seed, false)
	case wlQueryFanout:
		return newQueryWorkload(seed, true)
	case wlBrokerChurn:
		return newChurnWorkload(seed), nil
	case wlSubscribeStream:
		return newSubsWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Paced is the paced phase's latency distribution and GenLag how late
	// its generator started ops; both are printed beside the gated
	// percentiles and are not gated themselves.
	Paced     *latencySummary `json:"paced,omitempty"`
	GenLag    *latencySummary `json:"generator_lag,omitempty"`
	Saturate  *latencySummary `json:"saturate,omitempty"`
	Problems  []string        `json:"problems,omitempty"`
	TopLayers []string        `json:"top_self_time_layers,omitempty"`
}

// options are the parameters a result file records and -compare checks.
type options struct {
	NProc           int                `json:"nproc"`
	GoMaxProcs      int                `json:"gomaxprocs"`
	GoVersion       string             `json:"go_version"`
	Seed            int64              `json:"seed"`
	Seconds         float64            `json:"seconds"`
	Quick           bool               `json:"quick"`
	Trace           bool               `json:"trace"`
	Repeat          int                `json:"repeat"`
	SetupRuns       int                `json:"setup_runs"`
	PacedRates      map[string]float64 `json:"paced_rates_ops_s"`
	SubSaturateRate float64            `json:"subscribe_saturate_changes_per_s"`
	PacedSeconds    float64            `json:"paced_seconds"`
	SaturateSeconds float64            `json:"saturate_seconds"`
	Workloads       []string           `json:"workloads"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Options options      `json:"options"`
	Runs    []*runResult `json:"runs"`
}

// phaseSplit divides a run's measured seconds between its two phases:
// two thirds to the paced phase, whose 95th percentile needs the samples
// more than the saturate phase's averages do.
func phaseSplit(seconds float64) (paced, saturate time.Duration) {
	paced = time.Duration(seconds * 2 / 3 * float64(time.Second))
	return paced, time.Duration(seconds*float64(time.Second)) - paced
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(name string, opts options, seed int64) (*runResult, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: name, Seed: seed, Metrics: make(map[string]metricValue)}

	var e *env
	var setups []float64
	for i := 0; i < opts.SetupRuns; i++ {
		if e != nil {
			e.stop()
			runtime.GC() // so the next set-up does not pay for this one's garbage
		}
		e = newEnv(opts.NProc, nil)
		start := time.Now()
		if err := w.setup(e); err != nil {
			e.stop()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.stop()

	if telemetry.SpanRecorderActive() {
		res.Problems = append(res.Problems, "a span recorder is installed during an untraced run")
	}
	pacedDur, satDur := phaseSplit(opts.Seconds)
	before := readCounters()
	paced := w.paced(pacedDur)
	sat := w.saturate(satDur)
	delta := readCounters().sub(before)

	res.Attempted = paced.attempted() + sat.attempted()
	res.Failed = paced.failed() + sat.failed()
	if sat.attempted() == 0 || paced.attempted() == 0 {
		return nil, fmt.Errorf("%s: a phase completed no ops", name)
	}
	res.Problems = append(res.Problems, w.mechanism(delta, res.Attempted)...)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0

	ps, lag, ss := summarize(paced.latencies()), summarize(paced.LagMs), summarize(sat.latencies())
	res.Paced, res.GenLag, res.Saturate = &ps, &lag, &ss
	values := endToEndValues(setups, &paced, &sat)
	// The phases' op records (a megabyte or two whose size follows the
	// box's speed) and the workload's generated inputs and oracle tables
	// are the harness's own: they go before the heap is sized. The
	// community is still up.
	paced, sat, w = phaseResult{}, phaseResult{}, nil
	values["heap_live_mb"] = float64(liveHeap()) / (1 << 20)
	for _, def := range endToEnd {
		res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
	}
	res.Metrics[failedFrac] = metricValue{values[failedFrac], "ratio"}
	return res, nil
}

// endToEndValues computes the end-to-end metrics a run's phases yield
// (all but heap_live_mb, which is read off the live process). All but
// op_p95_ms are plain statistics of a whole phase, so a stall in any part
// of it moves them: of the paced phase, op_mean_ms above all.
func endToEndValues(setups []float64, paced, sat *phaseResult) map[string]float64 {
	lat := paced.latencies()
	sort.Float64s(lat)
	var latSum float64
	for _, l := range lat {
		latSum += l
	}
	satOps := float64(sat.attempted())
	attempted := paced.attempted() + sat.attempted()
	return map[string]float64{
		"setup_s":          median(setups),
		"op_p50_ms":        percentile(lat, 0.50),
		"op_p95_ms":        quietP95(paced.Ops),
		"op_mean_ms":       latSum / float64(len(lat)),
		"throughput_ops_s": float64(sat.attempted()-sat.failed()) / sat.Seconds,
		"cpu_ms_per_op":    ms(sat.Usage.cpu) / satOps,
		"allocs_per_op":    float64(sat.Usage.mallocs) / satOps,
		"alloc_kb_per_op":  float64(sat.Usage.totalAlloc) / 1024 / satOps,
		"wire_kb_per_op":   float64(sat.Usage.wire) / 1024 / satOps,
		failedFrac:         float64(paced.failed()+sat.failed()) / float64(attempted),
	}
}

// quietWindows is how many equal windows quietP95 cuts a paced phase into.
const quietWindows = 10

// quietP95 is the paced phase's 95th percentile latency over its quieter
// half: the phase is cut into quietWindows equal windows by due time, the
// windows are ranked by their own p95, and the percentile is taken over
// the pooled ops of the better half. The plain p95 of broker_churn spreads
// 30 to 60% from run to run on the reference box (README.md, Measured
// steadiness), and the driver refuses a benchmark whose metric spreads
// more than 25%. What this trims (a stall confined to under half the
// windows) op_mean_ms still counts in full; the plain p95, p99 and
// maximum are printed beside it.
func quietP95(ops []opRecord) float64 {
	var span time.Duration
	for _, o := range ops {
		span = max(span, o.At+1)
	}
	wins := make([][]float64, quietWindows)
	for _, o := range ops {
		k := int(o.At * quietWindows / span)
		wins[k] = append(wins[k], o.LatMs)
	}
	busy := wins[:0]
	for _, w := range wins {
		if len(w) > 0 { // a window no op was due in says nothing about the tail
			sort.Float64s(w)
			busy = append(busy, w)
		}
	}
	sort.SliceStable(busy, func(i, j int) bool { return percentile(busy[i], 0.95) < percentile(busy[j], 0.95) })
	var pooled []float64
	for _, w := range busy[:(len(busy)+1)/2] {
		pooled = append(pooled, w...)
	}
	sort.Float64s(pooled)
	return percentile(pooled, 0.95)
}

// runTraced derives the per-layer table of one workload from a separate
// one-client run over decorated transports.
func runTraced(name string, opts options, seed int64, spansOut io.Writer) (*runResult, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: name, Seed: seed, Trace: true, Metrics: make(map[string]metricValue)}
	tr := newTracer()
	e := newEnv(1, tr)
	defer e.stop()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	// Half the run's seconds go to the timed blocks; the replays and the
	// ping floor take the rest.
	tres := w.traced(tr, time.Duration(opts.Seconds/2*float64(time.Second)))
	res.Attempted = tres.UntracedOps + tres.TracedOps
	res.Failed = tres.Failed
	res.Problems = append(res.Problems, w.mechanism(tres.Delta, tres.TracedOps)...)

	table, top, err := layerTable(e, w.layers(), tres)
	if err != nil {
		return nil, fmt.Errorf("%s: layer table: %w", name, err)
	}
	if u := table["trace.unattributed_frac"]; u > maxUnattributed {
		res.Problems = append(res.Problems, fmt.Sprintf("trace.unattributed_frac = %.3f, above %.2f: the layer table is not to be trusted", u, maxUnattributed))
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	res.TopLayers = top
	for _, def := range perLayer {
		res.Metrics[def.Name] = metricValue{table[def.Name], def.Unit}
	}
	if spansOut != nil {
		if err := tr.writeSpans(spansOut, name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// printRun writes one run for a reader: every metric by name and unit.
func printRun(out io.Writer, r *runResult) {
	mode := "end to end"
	defs := append([]metricDef{}, endToEnd...)
	if r.Trace {
		mode, defs = "per layer (one client, traced)", perLayer
	} else {
		defs = append(defs, metricDef{failedFrac, "ratio"})
	}
	fmt.Fprintf(out, "\n== %s  seed %d  %s ==\n", r.Workload, r.Seed, mode)
	for _, def := range defs {
		fmt.Fprintf(out, "  %-38s %14.4f %s\n", def.Name, r.Metrics[def.Name].Value, def.Unit)
	}
	if r.Paced != nil {
		fmt.Fprintf(out, "  paced: %d ops, all-ops p95 %.3f ms, p99 %.3f ms, max %.3f ms; generator ran late by p50 %.3f ms, p95 %.3f ms, max %.3f ms\n",
			r.Paced.Samples, r.Paced.P95, r.Paced.P99, r.Paced.Max, r.GenLag.P50, r.GenLag.P95, r.GenLag.Max)
		fmt.Fprintf(out, "  saturate: %d ops, p50 %.3f ms, p95 %.3f ms\n", r.Saturate.Samples, r.Saturate.P50, r.Saturate.P95)
	}
	if len(r.TopLayers) > 0 {
		fmt.Fprintf(out, "  top self-time layers: %s\n", strings.Join(r.TopLayers, "; "))
	}
	fmt.Fprintf(out, "  ops attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

// printRepeats writes the median and quartiles of every metric over the
// repeated runs of each workload.
func printRepeats(out io.Writer, runs []*runResult) {
	byWorkload := make(map[string][]*runResult)
	for _, r := range runs {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, name := range workloadNames {
		rs := byWorkload[name]
		if len(rs) < 2 {
			continue
		}
		fmt.Fprintf(out, "\n== %s over %d runs: median [q1, q3] spread ==\n", name, len(rs))
		names := make([]string, 0, len(rs[0].Metrics))
		for n := range rs[0].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.Metrics[n].Value
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(out, "  %-38s %14.4f [%.4f, %.4f] %5.1f%% %s\n", n, median(vals), q1, q3, 100*spread(vals), rs[0].Metrics[n].Unit)
		}
	}
}

// driverLine is the last line of a single-workload run: the object the
// benchmark driver parses.
func driverLine(r *runResult) string {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, def := range defs {
		metrics[def.Name] = r.Metrics[def.Name]
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // the value is plain numbers and strings
	}
	return string(line)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", "", "run one workload (default: all four) and print the driver's result line last")
		seed         = fs.Int64("seed", defaultSeed, "seed that generates every input")
		seconds      = fs.Float64("seconds", defaultSeconds, "seconds one run measures: two thirds in the paced phase, a third in the saturate phase")
		trace        = fs.Int("trace", 0, "1: the separate one-client traced run that yields the per-layer table; 0: the end-to-end run")
		quick        = fs.Bool("quick", false, "smoke run: about a second per workload, one set-up")
		repeat       = fs.Int("repeat", 1, "run each workload this many times (seed, seed+1, ...) and report median and quartiles")
		outPath      = fs.String("out", "", "write a result file (for -compare) here")
		compare      = fs.Bool("compare", false, "compare two result files given as arguments, applying the bounds in -spec")
		specPath     = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds")
		spansPath    = fs.String("spans", ".bench_build/spans.jsonl", "where a traced run writes its spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, stderr, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	opts := options{
		NProc: nproc, GoMaxProcs: nproc, GoVersion: runtime.Version(),
		Seed: *seed, Seconds: *seconds, Quick: *quick, Trace: *trace == 1, Repeat: *repeat,
		SetupRuns: setupRuns, PacedRates: pacedRate, SubSaturateRate: subSaturateRate,
		Workloads: workloadNames,
	}
	if *quick {
		opts.Seconds, opts.SetupRuns = 1, 1
	}
	if *workloadFlag != "" {
		opts.Workloads = []string{*workloadFlag}
	}
	pacedDur, satDur := phaseSplit(opts.Seconds)
	opts.PacedSeconds, opts.SaturateSeconds = pacedDur.Seconds(), satDur.Seconds()

	var spansOut *os.File
	if opts.Trace {
		f, err := createFile(*spansPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		spansOut = f
	}

	file := resultFile{Options: opts}
	ok := true
	for _, name := range opts.Workloads {
		for i := 0; i < opts.Repeat; i++ {
			var r *runResult
			var err error
			if opts.Trace {
				r, err = runTraced(name, opts, *seed+int64(i), spansOut)
			} else {
				r, err = runUntraced(name, opts, *seed+int64(i))
			}
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRun(stdout, r)
			file.Runs = append(file.Runs, r)
			ok = ok && r.Correct
		}
	}
	if opts.Repeat > 1 {
		printRepeats(stdout, file.Runs)
	}
	if spansOut != nil {
		if err := spansOut.Close(); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nspans written to %s\n", *spansPath)
	}
	if *outPath != "" {
		if err := writeResultFile(*outPath, &file); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *workloadFlag != "" && opts.Repeat == 1 {
		fmt.Fprintln(stdout, driverLine(file.Runs[0]))
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED: an oracle or mechanism-engaged check did not hold (see PROBLEM lines and failed counts)")
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
