package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/mrq"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/sqlparse"
	"infosleuth/internal/useragent"
)

// The query workloads' data: the fragment layout mrqbench uses, at the
// sizes the issue fixes. Table contents are a fixed function of
// (fragment, row), not of the seed; the seed drives the op stream.
const (
	c3Fragments = 8
	c3Rows      = 256
	c2Fragments = 8
	c2Rows      = 128
	c1Rows      = 8

	// pointKeys is how many constants query_point draws from: far more
	// than the broker's 256-entry match cache, so the Zipf head hits it
	// and the tail misses.
	pointKeys = 8000
	zipfS     = 1.1
)

func c3Row(f, i int) relational.Row {
	return relational.Row{
		relational.Str(fmt.Sprintf("g%02d-%04d", f, i)),
		relational.Num(float64(f*1000 + i)),
		relational.Num(float64(i)), relational.Num(float64(i % 13)), relational.Num(float64(i % 7)),
	}
}

func c2Row(f, i int) relational.Row {
	return relational.Row{
		relational.Str(fmt.Sprintf("r%02d-%04d", f, i)),
		relational.Num(float64((f*c2Rows + i*37) % 1000)),
		relational.Num(float64(i)), relational.Num(float64(i % 7)), relational.Num(float64(i % 13)),
	}
}

// c1Row is the semi-join build side: its b values hit one C2 row per
// fragment each, and its advertised row estimate (8) always loses to
// C2's, so the planner pushes C1's join keys to the C2 fragments.
func c1Row(j int) relational.Row {
	return relational.Row{
		relational.Str(fmt.Sprintf("k%04d", j)),
		relational.Num(float64(j)), relational.Num(float64(j * (c2Rows / c1Rows))),
		relational.Num(float64(j % 3)), relational.Num(float64(j % 5)),
	}
}

// query_fanout's four query kinds, in deck order, and their shares in
// tenths.
const (
	fanWide = iota
	fanSelective
	fanJoin
	fanAggregate
)

var fanShares = []int{2, 4, 2, 2}

// fanThresholds are the selective kind's <t> constants, dealt from a
// deck of their own so every seed asks for the same mix of result sizes.
var fanThresholds = []int{100, 150, 200, 250, 300, 350, 400, 450}

func fanSQL(o op) string {
	switch o.Kind {
	case fanWide:
		return "SELECT * FROM C2 ORDER BY id"
	case fanSelective:
		return fmt.Sprintf("SELECT id, a FROM C2 WHERE a < %d", fanThresholds[o.Arg])
	case fanJoin:
		return "SELECT C1.id, C2.a FROM C1, C2 WHERE C1.b = C2.b ORDER BY id"
	default:
		return "SELECT COUNT(*), SUM(a), MIN(a), MAX(a), AVG(c) FROM C3"
	}
}

func pointSQL(k int32) string { return fmt.Sprintf("SELECT id, a FROM C3 WHERE a = %d", k) }

type pointStream struct{ keys *zipfKeys }

func (s *pointStream) next() op { return op{Arg: s.keys.next()} }

type fanStream struct{ kinds, thresholds *deck }

func (s *fanStream) next() op {
	o := op{Kind: s.kinds.next()}
	if o.Kind == fanSelective {
		o.Arg = int32(s.thresholds.next())
	}
	return o
}

// queryWorkload is query_point (fanout false) or query_fanout.
type queryWorkload struct {
	fanout bool
	seed   int64

	// sql and want are indexed by sqlIndex(op): every text the workload
	// can submit and the oracle's answer to it.
	sql  []string
	want []expected

	uas     []*useragent.Agent
	handles layerHandles
}

func newQueryWorkload(seed int64, fanout bool) (*queryWorkload, error) {
	w := &queryWorkload{fanout: fanout, seed: seed}
	if !fanout {
		// Ground truth straight from the generator: a = k selects the row
		// (k/1000, k%1000) when that fragment is long enough to hold it.
		for k := 0; k < pointKeys; k++ {
			var rows []relational.Row
			if f, i := k/1000, k%1000; i < c3Rows {
				row := c3Row(f, i)
				rows = []relational.Row{{row[0], row[1]}}
			}
			w.sql = append(w.sql, pointSQL(int32(k)))
			w.want = append(w.want, expected{want: digestOf(2, rows)})
		}
		return w, nil
	}
	// Ground truth by single-table evaluation: the same SQL over the
	// union of every class's fragments.
	truth := relational.NewDatabase()
	fill := func(class string, frags, rows int, row func(f, i int) relational.Row) error {
		tbl, err := truth.Create(relational.GenericSchema(class))
		if err != nil {
			return err
		}
		for f := 0; f < frags; f++ {
			for i := 0; i < rows; i++ {
				if err := tbl.Insert(row(f, i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := fill("C1", 1, c1Rows, func(_, j int) relational.Row { return c1Row(j) }); err != nil {
		return nil, err
	}
	if err := fill("C2", c2Fragments, c2Rows, c2Row); err != nil {
		return nil, err
	}
	if err := fill("C3", c3Fragments, c3Rows, c3Row); err != nil {
		return nil, err
	}
	for idx := 0; idx < w.sqlCount(); idx++ {
		text := fanSQL(w.opAt(idx))
		stmt, err := sqlparse.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", text, err)
		}
		res, err := sqlparse.Execute(truth, stmt)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", text, err)
		}
		w.sql = append(w.sql, text)
		w.want = append(w.want, expected{want: digestOf(len(res.Columns), res.Rows), ordered: stmt.OrderBy != ""})
	}
	return w, nil
}

// sqlIndex maps an op to its slot in sql/want; opAt is its inverse.
func (w *queryWorkload) sqlIndex(o op) int {
	if !w.fanout {
		return int(o.Arg)
	}
	if o.Kind == fanSelective {
		return fanAggregate + 1 + int(o.Arg)
	}
	return int(o.Kind)
}

func (w *queryWorkload) sqlCount() int { return fanAggregate + 1 + len(fanThresholds) }

func (w *queryWorkload) opAt(idx int) op {
	if idx > fanAggregate {
		return op{Kind: fanSelective, Arg: int32(idx - fanAggregate - 1)}
	}
	return op{Kind: uint8(idx)}
}

// warmupOps is the fixed count of untimed ops that end set-up: enough
// for every pool to dial, the match caches to fill and the planner's
// per-peer statistics to settle.
func (w *queryWorkload) warmupOps() int {
	if w.fanout {
		return 100
	}
	return 400
}

func (w *queryWorkload) name() string {
	if w.fanout {
		return wlQueryFanout
	}
	return wlQueryPoint
}

func (w *queryWorkload) stream(purpose string, client int) opStream {
	r := rand.New(rand.NewSource(streamSeed(w.seed, w.name()+"/"+purpose, client)))
	if w.fanout {
		ones := make([]int, len(fanThresholds))
		for i := range ones {
			ones[i] = 1
		}
		return &fanStream{kinds: newDeck(r, fanShares...), thresholds: newDeck(r, ones...)}
	}
	return &pointStream{keys: newZipfKeys(r, zipfS, pointKeys)}
}

// setup builds the community in the production profile: two brokers in
// one consortium, one planning MRQ agent, the fragment resources
// alternating between the brokers (so a full match needs one forward),
// and one user agent per client; then it warms pools, caches and the
// planner's statistics.
func (w *queryWorkload) setup(e *env) error {
	ctx := context.Background()
	w.handles = layerHandles{resources: make(map[string]*resource.Agent)}
	w.uas = nil

	var brokers []*broker.Broker
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("broker-%d", i+1)
		b, err := broker.New(broker.Config{
			Name: name, Address: loopback, Transport: e.transport(name, layerBroker), World: e.world,
		})
		if err != nil {
			return err
		}
		if err := e.start(name, b); err != nil {
			return err
		}
		brokers = append(brokers, b)
	}
	if err := brokers[0].JoinConsortium(ctx, brokers[1].Addr()); err != nil {
		return err
	}
	w.handles.brokers = brokers

	addResource := func(name, class string, home int, rows []relational.Row, cons *constraint.Set, caps []string) error {
		db := relational.NewDatabase()
		tbl, err := db.Create(relational.GenericSchema(class))
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := tbl.Insert(row); err != nil {
				return err
			}
		}
		ra, err := resource.New(resource.Config{
			Name: name, Address: loopback, Transport: e.transport(name, layerResource),
			KnownBrokers: []string{brokers[home].Addr()},
			DB:           db, Capabilities: caps,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{class}, Constraints: cons},
		})
		if err != nil {
			return err
		}
		if err := e.start(name, ra); err != nil {
			return err
		}
		if _, err := ra.Advertise(ctx); err != nil {
			return fmt.Errorf("advertising %s: %w", name, err)
		}
		w.handles.resources[name] = ra
		return nil
	}
	rowsOf := func(n int, row func(i int) relational.Row) []relational.Row {
		out := make([]relational.Row, n)
		for i := range out {
			out[i] = row(i)
		}
		return out
	}
	for f := 0; f < c3Fragments; f++ {
		err := addResource(fmt.Sprintf("ra-c3-%02d", f), "C3", f%2,
			rowsOf(c3Rows, func(i int) relational.Row { return c3Row(f, i) }),
			constraint.MustParse(fmt.Sprintf("C3.a between %d and %d", f*1000, f*1000+999)),
			[]string{ontology.CapRelationalQueryProcessing, ontology.CapAggregation})
		if err != nil {
			return err
		}
	}
	if w.fanout {
		for f := 0; f < c2Fragments; f++ {
			err := addResource(fmt.Sprintf("ra-c2-%02d", f), "C2", f%2,
				rowsOf(c2Rows, func(i int) relational.Row { return c2Row(f, i) }), nil, nil)
			if err != nil {
				return err
			}
		}
		if err := addResource("ra-c1", "C1", 0, rowsOf(c1Rows, c1Row), nil, nil); err != nil {
			return err
		}
	}

	m, err := mrq.New(mrq.Config{
		Name: "mrq", Address: loopback, Transport: e.transport("mrq", layerMRQ),
		KnownBrokers: []string{brokers[0].Addr()},
		World:        e.world, Ontology: "generic",
		PushConstraints: true, Planner: true,
	})
	if err != nil {
		return err
	}
	if err := e.start("mrq", m); err != nil {
		return err
	}
	if _, err := m.Advertise(ctx); err != nil {
		return fmt.Errorf("advertising mrq: %w", err)
	}

	for c := 0; c < e.clients; c++ {
		name := fmt.Sprintf("user-%d", c+1)
		ua, err := useragent.New(useragent.Config{
			Name: name, Address: loopback, Transport: e.transport(name, layerUserAgent),
			KnownBrokers: []string{brokers[0].Addr()},
		})
		if err != nil {
			return err
		}
		if err := e.start(name, ua); err != nil {
			return err
		}
		if _, err := ua.Advertise(ctx); err != nil {
			return fmt.Errorf("advertising %s: %w", name, err)
		}
		w.uas = append(w.uas, ua)
	}

	warm := w.stream("warmup", 0)
	for i := 0; i < w.warmupOps(); i++ {
		if !w.submit(i%len(w.uas), warm.next()) {
			return fmt.Errorf("%s: warm-up op %d failed", w.name(), i)
		}
	}
	return nil
}

// submit runs one op through a user agent and checks the answer. A
// partial answer loses rows, so the oracle catches it as a wrong answer
// (useragent.Submit does not pass the partial flag on).
func (w *queryWorkload) submit(client int, o op) bool {
	idx := w.sqlIndex(o)
	res, err := w.uas[client].Submit(context.Background(), w.sql[idx])
	return err == nil && w.want[idx].check(res)
}

func (w *queryWorkload) ops() []opFunc {
	out := make([]opFunc, len(w.uas))
	for c := range out {
		s := w.stream("load", c)
		out[c] = func() bool { return w.submit(c, s.next()) }
	}
	return out
}

func (w *queryWorkload) paced(dur time.Duration) phaseResult {
	return runPaced(w.ops(), pacedRate[w.name()], dur)
}

func (w *queryWorkload) saturate(dur time.Duration) phaseResult {
	return runSaturate(w.ops(), dur)
}

func (w *queryWorkload) traced(tr *tracer, dur time.Duration) tracedResult {
	s := w.stream("trace", 0)
	return traceClosedLoop(tr, w.uas[0].Name(), layerUserAgent, dur, func() bool { return w.submit(0, s.next()) })
}

func (w *queryWorkload) layers() *layerHandles { return &w.handles }

// mechanism checks the workload still exercises what it exists for.
func (w *queryWorkload) mechanism(d counters, ops int) []string {
	var bad []string
	n := float64(ops)
	fetches := d.get("infosleuth_mrq_fetch_total", "")
	if !w.fanout {
		if fetches != n {
			bad = append(bad, fmt.Sprintf("mrq.fetches_per_op = %.4f, want exactly 1 (constraint pruning must send each fetch to one resource)", fetches/n))
		}
		return bad
	}
	if d.get("infosleuth_mrq_plan_semijoins_total", "") <= 0 {
		bad = append(bad, "mrq.semijoins_per_op = 0: the planner no longer semi-joins the C1/C2 query")
	}
	if d.get("infosleuth_mrq_plan_aggregate_pushdowns_total", "") <= 0 {
		bad = append(bad, "mrq.agg_pushdowns_per_op = 0: the planner no longer pushes the C3 aggregate down")
	}
	return bad
}
