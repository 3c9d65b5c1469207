// Command isquery queries a running InfoSleuth community over TCP.
//
// Locate agents through a broker (the service-ontology query of
// Section 2.4):
//
//	isquery -broker tcp://127.0.0.1:4356 -type resource -ontology healthcare \
//	    -constraints "(patient.patient_age between 25 and 65) AND (patient.diagnosis_code = '40W')"
//
// Run a data query across all matching resources (a transient
// multiresource query agent assembles the fragments):
//
//	isquery -broker tcp://127.0.0.1:4356 -ontology healthcare \
//	    -sql "SELECT patient_id, patient_age FROM patient WHERE patient_age BETWEEN 50 AND 60"
//
// With -trace-dump, the conversation's spans are assembled into a trace
// tree (the same rendering a daemon serves at /traces/{id}) and printed
// after the result. With -explain, the decision provenance — which
// advertisements matched and why, what was pushed down, what failed over —
// is printed as the same explain report a daemon serves at
// /traces/{id}/explain. With -fail-on-partial, a partial answer (fragments
// lost with no covering replica) exits with code 3 instead of 0, so
// scripts can tell a complete answer from a degraded one.
//
// Observability views:
//
//	isquery -broker tcp://127.0.0.1:4356 -fleet
//	isquery -slowlog -metrics-url http://127.0.0.1:9090
//
// -fleet polls every community member for its telemetry snapshot and
// prints the fleet dashboard; -slowlog fetches a daemon's tail-sampled
// slow-query log. An unreachable bootstrap broker exits with code 4 and
// prints the address that failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"infosleuth/internal/constraint"
	"infosleuth/internal/fleet"
	"infosleuth/internal/kqml"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/recorder"
	"infosleuth/internal/transport"
)

// exitPartial is the exit code for a partial answer under -fail-on-partial:
// distinct from 1 (hard failure) and 2 (usage error) so callers can react
// to "answered, but incomplete" specifically.
const exitPartial = 3

// exitUnreachable is the exit code when the bootstrap broker cannot be
// reached at all: distinct from 1 (the community answered but something
// failed) so scripts can tell "wrong/missing broker" from a query error.
const exitUnreachable = 4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("isquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		brokerAddr    = fs.String("broker", "tcp://127.0.0.1:4356", "broker address")
		agentType     = fs.String("type", "", "required agent type (resource, query, user, broker)")
		language      = fs.String("language", "", "required content language (e.g. \"SQL 2.0\")")
		ontoName      = fs.String("ontology", "", "required ontology (e.g. healthcare)")
		classes       = fs.String("classes", "", "comma-separated required classes")
		caps          = fs.String("capabilities", "", "comma-separated required capabilities")
		constraints   = fs.String("constraints", "", "data constraints")
		limit         = fs.Int("limit", 0, "max recommendations (0 = all)")
		hops          = fs.Int("hops", 1, "inter-broker hop count")
		sql           = fs.String("sql", "", "run this SQL query across matching resources instead of listing agents")
		planOnly      = fs.Bool("plan", false, "with -sql: print the federated query plan (fan-out order, pushdowns, rewrites) without executing")
		planner       = fs.Bool("planner", false, "with -sql: enable the federated query planner (semi-join reduction, aggregate pushdown, cost-ordered fan-out)")
		timeout       = fs.Duration("timeout", 30*time.Second, "overall timeout")
		trace         = fs.Bool("trace", false, "trace the conversation and print one span per hop")
		traceDump     = fs.Bool("trace-dump", false, "trace the conversation and print the assembled trace tree")
		explain       = fs.Bool("explain", false, "trace the conversation and print the decision-provenance explain report")
		failOnPartial = fs.Bool("fail-on-partial", false,
			fmt.Sprintf("exit with code %d when the answer is partial (fragments lost with no covering replica)", exitPartial))
		fleetView  = fs.Bool("fleet", false, "poll every community member for a telemetry snapshot and print the fleet dashboard")
		slowlog    = fs.Bool("slowlog", false, "fetch and print a daemon's slow-query log (needs -metrics-url)")
		metricsURL = fs.String("metrics-url", "", "a daemon's metrics endpoint, e.g. http://127.0.0.1:9090 (for -slowlog)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *planOnly {
		if *sql == "" {
			fmt.Fprintln(stderr, "isquery: -plan requires -sql")
			return 2
		}
		// The plan is reported through the decision-provenance machinery;
		// -plan implies the explain rendering.
		*explain = true
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *slowlog {
		return runSlowlog(ctx, *metricsURL, stdout, stderr)
	}
	// Everything below talks to the bootstrap broker; probe it first so an
	// unreachable broker fails fast with its address and a distinct code.
	if err := pingBroker(ctx, *brokerAddr); err != nil {
		fmt.Fprintf(stderr, "isquery: broker at %s unreachable: %v\n", *brokerAddr, err)
		return exitUnreachable
	}
	if *fleetView {
		return runFleet(ctx, *brokerAddr, stdout, stderr)
	}

	var rec *recorder.Recorder
	if *traceDump || *explain {
		rec = recorder.New()
		telemetry.SetSpanRecorder(rec)
		defer telemetry.SetSpanRecorder(nil)
	}

	opts := outputOptions{
		stdout: stdout, stderr: stderr,
		rec: rec, trace: *trace, traceDump: *traceDump, explain: *explain,
	}
	if *sql != "" {
		return runSQL(ctx, *brokerAddr, *ontoName, *sql, *failOnPartial, *planner || *planOnly, *planOnly, opts)
	}

	q := &ontology.Query{
		Type:            ontology.AgentType(*agentType),
		ContentLanguage: *language,
		Ontology:        *ontoName,
		Limit:           *limit,
		Policy:          ontology.SearchPolicy{HopCount: *hops, Follow: ontology.FollowAll},
	}
	if *classes != "" {
		q.Classes = strings.Split(*classes, ",")
	}
	if *caps != "" {
		q.Capabilities = strings.Split(*caps, ",")
	}
	if *constraints != "" {
		cs, err := constraint.Parse(*constraints)
		if err != nil {
			fmt.Fprintf(stderr, "isquery: %v\n", err)
			return 1
		}
		q.Constraints = cs
	}

	tr := &transport.TCP{}
	msg := kqml.New(kqml.AskAll, "isquery", &kqml.BrokerQuery{Query: q})
	msg.Ontology = kqml.ServiceOntology
	if *trace || *traceDump || *explain {
		ctx = telemetry.WithTraceID(ctx, telemetry.NewTraceID())
	}
	reply, err := tr.Call(ctx, *brokerAddr, msg)
	if err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 1
	}
	if reply.Performative != kqml.Tell {
		fmt.Fprintf(stderr, "isquery: broker: %s\n", kqml.ReasonOf(reply))
		return 1
	}
	var br kqml.BrokerReply
	if err := reply.DecodeContent(&br); err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 1
	}
	if len(br.Degraded) > 0 {
		fmt.Fprintf(stdout, "WARNING: search degraded — unreachable or circuit-open brokers skipped: %s\n",
			strings.Join(br.Degraded, ", "))
	}
	if len(br.Matches) == 0 {
		fmt.Fprintln(stdout, "no matching agents")
	} else {
		fmt.Fprintf(stdout, "%d matching agent(s) (brokers consulted: %s):\n", len(br.Matches), strings.Join(br.Brokers, ", "))
		for _, ad := range br.Matches {
			fmt.Fprintf(stdout, "  %-28s %-9s %s\n", ad.Name, ad.Type, ad.Address)
			for _, f := range ad.Content {
				fmt.Fprintf(stdout, "    serves %s\n", f.String())
			}
		}
	}
	if *trace {
		spans := kqml.TimingSpans(reply.Trace)
		fmt.Fprintf(stdout, "trace %s (%d spans):\n", reply.TraceID, len(spans))
		for _, s := range spans {
			fmt.Fprintf(stdout, "  hop %d  %-20s %-20s %d µs\n", s.Hop, s.Agent, s.Op, s.DurationMicros)
		}
	}
	opts.dump(msg.TraceID)
	return 0
}

// outputOptions bundles the post-result reporting knobs.
type outputOptions struct {
	stdout, stderr io.Writer
	rec            *recorder.Recorder
	trace          bool
	traceDump      bool
	explain        bool
}

// dump prints the trace tree and/or explain report for one conversation.
func (o outputOptions) dump(traceID string) {
	if o.rec == nil {
		return
	}
	if o.traceDump {
		if tree, ok := o.rec.Trace(traceID); ok {
			fmt.Fprint(o.stdout, tree.Format())
		} else {
			fmt.Fprintf(o.stdout, "trace %s: no spans recorded\n", traceID)
		}
	}
	if o.explain {
		if ex, ok := o.rec.Explain(traceID); ok {
			fmt.Fprint(o.stdout, ex.Format())
		} else {
			fmt.Fprintf(o.stdout, "trace %s: no decisions recorded\n", traceID)
		}
	}
}

func runSQL(ctx context.Context, brokerAddr, ontoName, sql string, failOnPartial, planner, planOnly bool, opts outputOptions) int {
	if ontoName == "" {
		ontoName = "healthcare"
	}
	a, err := mrq.New(mrq.Config{
		Name:            "isquery-mrq",
		Address:         "tcp://127.0.0.1:0",
		Transport:       &transport.TCP{},
		KnownBrokers:    []string{brokerAddr},
		World:           ontology.NewWorld(ontology.Generic(), ontology.Healthcare()),
		Ontology:        ontoName,
		PushConstraints: true,
		Planner:         planner,
	})
	if err != nil {
		fmt.Fprintf(opts.stderr, "isquery: %v\n", err)
		return 1
	}
	if err := a.Start(); err != nil {
		fmt.Fprintf(opts.stderr, "isquery: %v\n", err)
		return 1
	}
	defer a.Stop()
	traceID := ""
	if opts.rec != nil {
		traceID = telemetry.NewTraceID()
		ctx = telemetry.WithTraceID(ctx, traceID)
	}
	if planOnly {
		if err := a.Plan(ctx, sql); err != nil {
			fmt.Fprintf(opts.stderr, "isquery: %v\n", err)
			return 1
		}
		fmt.Fprintln(opts.stdout, "plan only — no fragments fetched")
		opts.dump(traceID)
		return 0
	}
	res, status, err := a.RunWithStatus(ctx, sql)
	if err != nil {
		fmt.Fprintf(opts.stderr, "isquery: %v\n", err)
		return 1
	}
	fmt.Fprint(opts.stdout, res.String())
	fmt.Fprintf(opts.stdout, "(%d rows)\n", res.Len())
	if status.Partial {
		fmt.Fprintln(opts.stdout, "WARNING: partial result — some fragments were lost with no covering replica:")
		for _, d := range status.Degraded {
			fmt.Fprintf(opts.stdout, "  class %s: %s (%s)\n", d.Class, strings.Join(d.Agents, ", "), d.Reason)
		}
	}
	opts.dump(traceID)
	if status.Partial && failOnPartial {
		return exitPartial
	}
	return 0
}

// pingBroker checks the bootstrap broker answers at all.
func pingBroker(ctx context.Context, addr string) error {
	tr := &transport.TCP{}
	msg := kqml.New(kqml.Ping, "isquery", &kqml.PingContent{AgentName: "isquery"})
	_, err := tr.Call(ctx, addr, msg)
	return err
}

// runFleet spins up a transient fleet monitor (like runSQL's transient
// MRQ agent), discovers the community through the broker, polls every
// member once, and prints the dashboard.
func runFleet(ctx context.Context, brokerAddr string, stdout, stderr io.Writer) int {
	fa, err := fleet.New(fleet.Config{
		Name:         "isquery-fleet",
		Address:      "tcp://127.0.0.1:0",
		Transport:    &transport.TCP{},
		KnownBrokers: []string{brokerAddr},
	})
	if err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 1
	}
	if err := fa.Start(); err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 1
	}
	defer fa.Stop()
	if err := fa.Discover(ctx); err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 1
	}
	fa.PollOnce(ctx)
	fmt.Fprint(stdout, fa.Dashboard())
	return 0
}

// runSlowlog fetches a daemon's /slowlog text rendering.
func runSlowlog(ctx context.Context, metricsURL string, stdout, stderr io.Writer) int {
	if metricsURL == "" {
		fmt.Fprintln(stderr, "isquery: -slowlog requires -metrics-url (a daemon's metrics endpoint)")
		return 2
	}
	url := strings.TrimRight(metricsURL, "/") + "/slowlog?format=text"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 2
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintf(stderr, "isquery: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "isquery: %s: %s\n", url, resp.Status)
		return 1
	}
	_, _ = io.Copy(stdout, resp.Body)
	return 0
}
