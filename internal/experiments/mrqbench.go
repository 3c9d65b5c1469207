// MRQ fan-out benchmarks: serial vs parallel fragment gathering over a
// horizontally fragmented class with simulated per-call latency, and
// bytes-on-wire with and without pushdown, emitted as BENCH_mrq.json by
// `experiments -run bench` (or `-run mrqbench` alone). Like the broker
// bench these measure the implementation, not the paper's Section 5
// results — the Section 5 harness keeps the MRQ gather serial.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/transport"
)

// benchC1Rows is the semi-join build side's size: small enough that its
// advertised row estimate always loses to C2's, so the planner pushes
// C1's join keys to the C2 fragments.
const benchC1Rows = 8

// MRQBenchOptions sizes the fan-out benchmark rig.
type MRQBenchOptions struct {
	// Fragments is the number of horizontal fragments (resource agents)
	// of the benchmarked class; the issue's reference point is 8.
	Fragments int
	// RowsPerFragment is each resource's table size.
	RowsPerFragment int
	// CallLatency is the simulated per-query latency at each resource
	// (implemented with the resource model's QueryDelayPerRow).
	CallLatency time.Duration
}

func (o *MRQBenchOptions) defaults() {
	if o.Fragments <= 0 {
		o.Fragments = 8
	}
	if o.RowsPerFragment <= 0 {
		o.RowsPerFragment = 64
	}
	if o.CallLatency <= 0 {
		o.CallLatency = 4 * time.Millisecond
	}
}

// MRQBenchResult is the checked-in BENCH_mrq.json shape.
type MRQBenchResult struct {
	Note                 string    `json:"note"`
	Fragments            int       `json:"fragments"`
	RowsPerFragment      int       `json:"rows_per_fragment"`
	SimulatedCallLatency string    `json:"simulated_call_latency"`
	Serial               BenchStat `json:"serial"`
	Parallel             BenchStat `json:"parallel"`
	SpeedupX             float64   `json:"speedup_x"`
	// Wire bytes are resource reply content bytes per query, measured by
	// diffing the MRQ fetch counters around a fixed run count.
	FetchBytesPerOpNoPushdown int64   `json:"fetch_bytes_per_op_no_pushdown"`
	FetchBytesPerOpPushdown   int64   `json:"fetch_bytes_per_op_pushdown"`
	PushdownBytesReductionX   float64 `json:"pushdown_bytes_reduction_x"`
	// Planner rewrites: wire bytes with and without the federated planner
	// on a cross-class join (semi-join reduction) and an aggregate query
	// (partial-aggregate pushdown). "Full" is the PR4 path — parallel
	// gather with constraint/projection pushdown but no planner.
	SemiJoin  MRQRewriteBench `json:"semi_join"`
	Aggregate MRQRewriteBench `json:"aggregate"`
}

// MRQRewriteBench compares one planner rewrite against the full-fragment
// path on reply bytes per query.
type MRQRewriteBench struct {
	Query                  string  `json:"query"`
	FetchBytesPerOpFull    int64   `json:"fetch_bytes_per_op_full"`
	FetchBytesPerOpPlanned int64   `json:"fetch_bytes_per_op_planned"`
	ReductionX             float64 `json:"reduction_x"`
}

// mrqBenchRig wires an in-proc broker, opts.Fragments resource agents
// holding disjoint horizontal fragments of C2, and MRQ agents in the
// requested configurations.
type mrqBenchRig struct {
	mrqs []*mrq.Agent
	stop []func()
}

func (r *mrqBenchRig) Stop() {
	for i := len(r.stop) - 1; i >= 0; i-- {
		r.stop[i]()
	}
}

func newMRQBenchRig(opts MRQBenchOptions) (*mrqBenchRig, error) {
	tr := transport.NewInProc()
	world := BenchWorld()
	rig := &mrqBenchRig{}
	b, err := broker.New(broker.Config{Name: "bench-broker", Transport: tr, World: world})
	if err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	rig.stop = append(rig.stop, func() { b.Stop() })

	addResource := func(cfg resource.Config) error {
		cfg.Transport = tr
		cfg.KnownBrokers = []string{b.Addr()}
		ra, err := resource.New(cfg)
		if err != nil {
			return err
		}
		if err := ra.Start(); err != nil {
			return err
		}
		rig.stop = append(rig.stop, func() { ra.Stop() })
		_, err = ra.Advertise(context.Background())
		return err
	}

	perRow := opts.CallLatency / time.Duration(opts.RowsPerFragment)
	for f := 0; f < opts.Fragments; f++ {
		db := relational.NewDatabase()
		tbl, err := db.Create(relational.GenericSchema("C2"))
		if err != nil {
			rig.Stop()
			return nil, err
		}
		for i := 0; i < opts.RowsPerFragment; i++ {
			tbl.MustInsert(relational.Row{
				relational.Str(fmt.Sprintf("r%02d-%04d", f, i)),
				relational.Num(float64((f*opts.RowsPerFragment + i*37) % 1000)),
				relational.Num(float64(i)), relational.Num(float64(i % 7)), relational.Num(float64(i % 13)),
			})
		}
		if err := addResource(resource.Config{
			Name: fmt.Sprintf("bench-ra-%02d", f), DB: db,
			QueryDelayPerRow: perRow,
			Fragment:         ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
		}); err != nil {
			rig.Stop()
			return nil, err
		}
	}

	// C1: one small resource whose b values hit only a slice of C2's —
	// the semi-join build side. Its advertised row estimate (8) against
	// C2's sizes the rewrite.
	{
		db := relational.NewDatabase()
		tbl, err := db.Create(relational.GenericSchema("C1"))
		if err != nil {
			rig.Stop()
			return nil, err
		}
		step := opts.RowsPerFragment / benchC1Rows
		if step < 1 {
			step = 1
		}
		for j := 0; j < benchC1Rows; j++ {
			tbl.MustInsert(relational.Row{
				relational.Str(fmt.Sprintf("k%04d", j)),
				relational.Num(float64(j)), relational.Num(float64(j * step)),
				relational.Num(float64(j % 3)), relational.Num(float64(j % 5)),
			})
		}
		if err := addResource(resource.Config{
			Name: "bench-ra-c1", DB: db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C1"}},
		}); err != nil {
			rig.Stop()
			return nil, err
		}
	}

	// C3: disjoint horizontal fragments advertising range constraints and
	// the aggregation capability — the partial-aggregate pushdown target.
	for f := 0; f < opts.Fragments; f++ {
		db := relational.NewDatabase()
		tbl, err := db.Create(relational.GenericSchema("C3"))
		if err != nil {
			rig.Stop()
			return nil, err
		}
		for i := 0; i < opts.RowsPerFragment; i++ {
			tbl.MustInsert(relational.Row{
				relational.Str(fmt.Sprintf("g%02d-%04d", f, i)),
				relational.Num(float64(f*1000 + i)),
				relational.Num(float64(i)), relational.Num(float64(i % 13)), relational.Num(float64(i % 7)),
			})
		}
		if err := addResource(resource.Config{
			Name: fmt.Sprintf("bench-ra-c3-%02d", f), DB: db,
			QueryDelayPerRow: perRow,
			Capabilities:     []string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation},
			Fragment: ontology.Fragment{
				Ontology: "generic", Classes: []string{"C3"},
				Constraints: constraint.MustParse(fmt.Sprintf("C3.a between %d and %d", f*1000, f*1000+999)),
			},
		}); err != nil {
			rig.Stop()
			return nil, err
		}
	}

	for _, cfg := range []struct {
		name    string
		fanout  int
		push    bool
		planner bool
	}{
		{"bench-mrq-serial", 1, true, false},
		{"bench-mrq-parallel", 0, true, false},
		{"bench-mrq-nopush", 1, false, false},
		{"bench-mrq-planned", 0, true, true},
	} {
		m, err := mrq.New(mrq.Config{
			Name: cfg.name, Transport: tr, KnownBrokers: []string{b.Addr()},
			World: world, Ontology: "generic",
			PushConstraints: cfg.push, MaxFanout: cfg.fanout,
			Planner: cfg.planner,
		})
		if err != nil {
			rig.Stop()
			return nil, err
		}
		if err := m.Start(); err != nil {
			rig.Stop()
			return nil, err
		}
		rig.mrqs = append(rig.mrqs, m)
		rig.stop = append(rig.stop, func() { m.Stop() })
	}
	return rig, nil
}

// MRQBench measures serial vs parallel fragment gathering and the wire
// bytes saved by pushdown.
func MRQBench(opts MRQBenchOptions) (*MRQBenchResult, error) {
	opts.defaults()
	rig, err := newMRQBenchRig(opts)
	if err != nil {
		return nil, err
	}
	defer rig.Stop()
	serialAgent, parallelAgent, noPushAgent := rig.mrqs[0], rig.mrqs[1], rig.mrqs[2]

	const wideQuery = "SELECT * FROM C2 ORDER BY id"
	run := func(a *mrq.Agent, sql string) (BenchStat, error) {
		var runErr error
		res := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := a.Run(context.Background(), sql); err != nil {
					runErr = err
					tb.Fatal(err)
				}
			}
		})
		return stat(res), runErr
	}
	serial, err := run(serialAgent, wideQuery)
	if err != nil {
		return nil, fmt.Errorf("serial gather: %w", err)
	}
	parallel, err := run(parallelAgent, wideQuery)
	if err != nil {
		return nil, fmt.Errorf("parallel gather: %w", err)
	}

	// Bytes on the wire with and without pushdown: a selective
	// projecting query, counted over a fixed number of runs.
	const selectiveQuery = "SELECT id, a FROM C2 WHERE a < 250 ORDER BY id"
	const byteRuns = 3
	bytesPerOp := func(a *mrq.Agent, sql string) (int64, string, error) {
		var last string
		before := mrq.SnapshotFetchStats()
		for i := 0; i < byteRuns; i++ {
			res, err := a.Run(context.Background(), sql)
			if err != nil {
				return 0, "", err
			}
			last = res.String()
		}
		after := mrq.SnapshotFetchStats()
		return (after.Bytes - before.Bytes) / byteRuns, last, nil
	}
	noPushBytes, _, err := bytesPerOp(noPushAgent, selectiveQuery)
	if err != nil {
		return nil, fmt.Errorf("no-pushdown bytes: %w", err)
	}
	pushBytes, _, err := bytesPerOp(serialAgent, selectiveQuery)
	if err != nil {
		return nil, fmt.Errorf("pushdown bytes: %w", err)
	}

	// Planner rewrites vs the full-fragment path. Each comparison also
	// checks the differential: the planned answer must be byte-identical
	// to the unplanned one.
	plannedAgent := rig.mrqs[3]
	const joinQuery = "SELECT C1.id, C2.a FROM C1, C2 WHERE C1.b = C2.b ORDER BY id"
	const aggQuery = "SELECT COUNT(*), SUM(a), MIN(a), MAX(a), AVG(c) FROM C3"
	rewrite := func(sql string) (MRQRewriteBench, error) {
		full, fullOut, err := bytesPerOp(parallelAgent, sql)
		if err != nil {
			return MRQRewriteBench{}, fmt.Errorf("full path: %w", err)
		}
		planned, plannedOut, err := bytesPerOp(plannedAgent, sql)
		if err != nil {
			return MRQRewriteBench{}, fmt.Errorf("planned path: %w", err)
		}
		if fullOut != plannedOut {
			return MRQRewriteBench{}, fmt.Errorf("differential failed: planned answer differs from full-path answer for %q", sql)
		}
		r := MRQRewriteBench{Query: sql, FetchBytesPerOpFull: full, FetchBytesPerOpPlanned: planned}
		if planned > 0 {
			r.ReductionX = float64(full) / float64(planned)
		}
		return r, nil
	}
	semiJoin, err := rewrite(joinQuery)
	if err != nil {
		return nil, fmt.Errorf("semi-join rig: %w", err)
	}
	aggregate, err := rewrite(aggQuery)
	if err != nil {
		return nil, fmt.Errorf("aggregate rig: %w", err)
	}

	res := &MRQBenchResult{
		Note: "MRQ fan-out benchmarks; the Section 5 artifacts keep the gather serial " +
			"(community.PaperFaithful, MaxFanout=1) to model the paper's MRQ agent",
		Fragments:                 opts.Fragments,
		RowsPerFragment:           opts.RowsPerFragment,
		SimulatedCallLatency:      opts.CallLatency.String(),
		Serial:                    serial,
		Parallel:                  parallel,
		FetchBytesPerOpNoPushdown: noPushBytes,
		FetchBytesPerOpPushdown:   pushBytes,
		SemiJoin:                  semiJoin,
		Aggregate:                 aggregate,
	}
	if parallel.NsPerOp > 0 {
		res.SpeedupX = serial.NsPerOp / parallel.NsPerOp
	}
	if pushBytes > 0 {
		res.PushdownBytesReductionX = float64(noPushBytes) / float64(pushBytes)
	}
	return res, nil
}

// WriteMRQBench runs MRQBench and writes the JSON artifact.
func WriteMRQBench(path string, opts MRQBenchOptions) (*MRQBenchResult, error) {
	res, err := MRQBench(opts)
	if err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}
