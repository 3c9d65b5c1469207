// Package experiments regenerates every table and figure of the paper's
// Section 5: the live-community experiments of Tables 1-4 (query streams
// over single- versus multi-broker InfoSleuth communities) and the
// simulation experiments of Figures 14-17 and Tables 5-6.
//
// It also stages four artifacts of this implementation's observability:
// a traced multibroker query (Traces), its decision provenance
// (ExplainDemo), the fleet dashboard and slowlog (Fleet), and the metric
// catalog (MetricsCatalog). The implementation's performance is measured
// by the separate benchmark module, and its scaling bounds are held by
// tests in the packages they bound.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/community"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/stats"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/transport"
	"infosleuth/internal/useragent"
)

// Stream is one of the paper's Table 1 query streams: a workload shape
// defined by how a class's data is laid out across resource agents.
type Stream struct {
	// Name is the paper's stream code (SA, DA, 4A, VF, CH, FH).
	Name string
	// Description matches the Table 1 row.
	Description string
	// NumRAs is the number of resource agents the stream uses.
	NumRAs int
	// Classes lists the ontology classes involved (superclass first),
	// used for broker specialization in Experiment 6.
	Classes []string
	// Query is the SQL statement the stream submits.
	Query string
	// build creates the stream's resource agents in a community;
	// brokersFor returns the broker addresses the i-th resource should
	// advertise to.
	build func(ctx context.Context, c *community.Community, name func(i int) string,
		brokersFor func(i int) []string, rows int) error
}

// rowsFor fills a generic class table with n rows whose keys embed a
// distinguishing tag (so different resources hold disjoint row sets).
func fillGeneric(tbl *relational.Table, tag string, n int) error {
	for i := 0; i < n; i++ {
		cols := len(tbl.Schema().Columns)
		row := make(relational.Row, cols)
		row[0] = relational.Str(fmt.Sprintf("%s-%05d", tag, i))
		for j := 1; j < cols; j++ {
			row[j] = relational.Num(float64((i*31 + j*17) % 1000))
		}
		if err := tbl.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

func genericDB(class, tag string, n int) (*relational.Database, error) {
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.GenericSchema(class))
	if err != nil {
		return nil, err
	}
	if err := fillGeneric(tbl, tag, n); err != nil {
		return nil, err
	}
	return db, nil
}

// subclassSchema extends the generic schema with one extra slot, matching
// the Generic ontology's C2a/C2b/C6a/C6b subclasses.
func subclassSchema(class, extraSlot string) relational.Schema {
	s := relational.GenericSchema(class)
	s.Columns = append(s.Columns, relational.Column{Name: extraSlot, Type: relational.TypeNumber})
	return s
}

// Streams returns the paper's six query streams (Table 1). The SA/DA/4A
// streams replicate one class's rows across 1, 2 and 4 agents; VF splits a
// class vertically; CH splits it by subclass; FH combines both.
func Streams() []Stream {
	return []Stream{
		{
			Name:        "SA",
			Description: "single agent: one resource agent holds the class",
			NumRAs:      1,
			Classes:     []string{"C1"},
			Query:       "SELECT * FROM C1",
			build: func(ctx context.Context, c *community.Community, name func(int) string, brokersFor func(int) []string, rows int) error {
				db, err := genericDB("C1", "sa", rows)
				if err != nil {
					return err
				}
				_, err = c.AddResource(ctx, community.ResourceSpec{
					Name: name(0), DB: db,
					Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C1"}},
					Brokers:  brokersFor(0),
				})
				return err
			},
		},
		{
			Name:        "DA",
			Description: "double agent: the class is split row-wise over two resource agents",
			NumRAs:      2,
			Classes:     []string{"C3"},
			Query:       "SELECT * FROM C3",
			build: func(ctx context.Context, c *community.Community, name func(int) string, brokersFor func(int) []string, rows int) error {
				return buildHorizontal(ctx, c, "C3", "da", 2, name, brokersFor, rows)
			},
		},
		{
			Name:        "4A",
			Description: "four agent: the class is split row-wise over four resource agents",
			NumRAs:      4,
			Classes:     []string{"C4"},
			Query:       "SELECT * FROM C4",
			build: func(ctx context.Context, c *community.Community, name func(int) string, brokersFor func(int) []string, rows int) error {
				return buildHorizontal(ctx, c, "C4", "4a", 4, name, brokersFor, rows)
			},
		},
		{
			Name:        "VF",
			Description: "vertical fragmentation: the class's columns are split over three resource agents",
			NumRAs:      3,
			Classes:     []string{"C5"},
			Query:       "SELECT * FROM C5",
			build: func(ctx context.Context, c *community.Community, name func(int) string, brokersFor func(int) []string, rows int) error {
				base := relational.MustNewTable(relational.GenericSchema("C5"))
				if err := fillGeneric(base, "vf", rows); err != nil {
					return err
				}
				for i, cols := range [][]string{{"a"}, {"b"}, {"c", "d"}} {
					frag, err := relational.VerticalFragment(base, "C5", cols)
					if err != nil {
						return err
					}
					db := relational.NewDatabase()
					if err := db.Attach(frag); err != nil {
						return err
					}
					slots := append([]string{"id"}, cols...)
					if _, err := c.AddResource(ctx, community.ResourceSpec{
						Name: name(i), DB: db,
						Fragment: ontology.Fragment{
							Ontology: "generic", Classes: []string{"C5"},
							Slots: map[string][]string{"C5": slots},
						},
						Brokers: brokersFor(i),
					}); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name:        "CH",
			Description: "class hierarchy: two resource agents hold sibling subclasses of the class",
			NumRAs:      2,
			Classes:     []string{"C2", "C2a", "C2b"},
			Query:       "SELECT * FROM C2",
			build: func(ctx context.Context, c *community.Community, name func(int) string, brokersFor func(int) []string, rows int) error {
				for i, sub := range []struct{ class, slot string }{{"C2a", "e"}, {"C2b", "f"}} {
					db := relational.NewDatabase()
					tbl, err := db.Create(subclassSchema(sub.class, sub.slot))
					if err != nil {
						return err
					}
					if err := fillGeneric(tbl, "ch-"+sub.class, rows/2); err != nil {
						return err
					}
					if _, err := c.AddResource(ctx, community.ResourceSpec{
						Name: name(i), DB: db,
						Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{sub.class}},
						Brokers:  brokersFor(i),
					}); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name:        "FH",
			Description: "fragmentation & class hierarchy: two subclasses, each vertically fragmented over two agents",
			NumRAs:      4,
			Classes:     []string{"C6", "C6a", "C6b"},
			Query:       "SELECT * FROM C6",
			build: func(ctx context.Context, c *community.Community, name func(int) string, brokersFor func(int) []string, rows int) error {
				i := 0
				for _, sub := range []struct{ class, slot string }{{"C6a", "g"}, {"C6b", "h"}} {
					base := relational.MustNewTable(subclassSchema(sub.class, sub.slot))
					if err := fillGeneric(base, "fh-"+sub.class, rows/2); err != nil {
						return err
					}
					for _, cols := range [][]string{{"a", "b"}, {"c", "d", sub.slot}} {
						frag, err := relational.VerticalFragment(base, sub.class, cols)
						if err != nil {
							return err
						}
						db := relational.NewDatabase()
						if err := db.Attach(frag); err != nil {
							return err
						}
						slots := append([]string{"id"}, cols...)
						if _, err := c.AddResource(ctx, community.ResourceSpec{
							Name: name(i), DB: db,
							Fragment: ontology.Fragment{
								Ontology: "generic", Classes: []string{sub.class},
								Slots: map[string][]string{sub.class: slots},
							},
							Brokers: brokersFor(i),
						}); err != nil {
							return err
						}
						i++
					}
				}
				return nil
			},
		},
	}
}

func buildHorizontal(ctx context.Context, c *community.Community, class, tag string, parts int,
	name func(int) string, brokersFor func(int) []string, rows int) error {
	per := rows / parts
	if per < 1 {
		per = 1
	}
	for i := 0; i < parts; i++ {
		db, err := genericDB(class, fmt.Sprintf("%s%d", tag, i), per)
		if err != nil {
			return err
		}
		if _, err := c.AddResource(ctx, community.ResourceSpec{
			Name: name(i), DB: db,
			Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{class}},
			Brokers:  brokersFor(i),
		}); err != nil {
			return err
		}
	}
	return nil
}

// StreamSetFor returns the streams active in experiment number 1-5 (the
// experiments add streams cumulatively, following the filled cells of the
// paper's Table 3).
func StreamSetFor(expt int) []Stream {
	all := Streams()
	byName := make(map[string]Stream, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	order := [][]string{
		1: {"4A"},
		2: {"4A", "DA", "SA"},
		3: {"4A", "DA", "SA", "VF"},
		4: {"4A", "DA", "SA", "VF", "FH"},
		5: {"4A", "DA", "SA", "VF", "FH", "CH"},
	}
	if expt < 1 || expt > 5 {
		expt = 5
	}
	var out []Stream
	for _, n := range order[expt] {
		out = append(out, byName[n])
	}
	return out
}

// latencyTransport wraps a transport, adding a fixed delay to every call —
// the network round trip the original Sparc cluster paid between machines,
// which the in-process transport otherwise lacks.
type latencyTransport struct {
	inner transport.Transport
	delay time.Duration
}

func (t *latencyTransport) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	return t.inner.Listen(addr, h)
}

func (t *latencyTransport) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	return t.inner.Call(ctx, addr, msg)
}

// LiveOptions tune the live-community experiments (Tables 3-4).
type LiveOptions struct {
	// Rounds repeats each measurement; the paper ran each experiment 3
	// times. Zero means 3.
	Rounds int
	// QueriesPerStream is how many queries each stream's user submits
	// per round. Zero means 5.
	QueriesPerStream int
	// RowsPerClass sizes each class's data. Zero means 80.
	RowsPerClass int
	// CostPerAd is the brokers' synthetic reasoning cost per stored
	// advertisement. Zero means 1 ms.
	CostPerAd time.Duration
	// RowDelay is the resources' processing cost per stored row. Zero
	// means 300 µs — sized so resource-side work dominates an
	// underloaded query's response time, as it did on the paper's
	// testbed (their response time included CPU, disk I/O and display).
	RowDelay time.Duration
	// NetLatency is the per-call transport latency. Zero means 2 ms.
	NetLatency time.Duration
	// MultiBrokers is the multibroker consortium size. Zero means 4.
	MultiBrokers int
}

func (o LiveOptions) withDefaults() LiveOptions {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.QueriesPerStream <= 0 {
		o.QueriesPerStream = 5
	}
	if o.RowsPerClass <= 0 {
		o.RowsPerClass = 80
	}
	if o.CostPerAd <= 0 {
		o.CostPerAd = time.Millisecond
	}
	if o.RowDelay <= 0 {
		o.RowDelay = 300 * time.Microsecond
	}
	if o.NetLatency <= 0 {
		o.NetLatency = 2 * time.Millisecond
	}
	if o.MultiBrokers <= 0 {
		o.MultiBrokers = 4
	}
	return o
}

// liveRun builds a community for one experiment configuration, runs the
// workload and returns the mean response time per stream, plus a
// histogram snapshot per stream (count, mean, p50/p95/p99) recorded
// through a run-private telemetry registry so experiment samples do not
// pollute the process-wide one.
func liveRun(streams []Stream, brokers int, specialized bool, opts LiveOptions) (map[string]float64, map[string]telemetry.HistogramSnapshot, error) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	latencies := reg.HistogramVec("experiment_query_seconds",
		"Per-query response time in seconds, by stream.", "stream")
	tr := &latencyTransport{inner: transport.NewInProc(), delay: opts.NetLatency}

	// Broker configuration: under specialization, broker i declares the
	// classes of the streams assigned to it and prunes peers.
	streamBroker := func(si int) int { return si % brokers }
	c, err := community.New(community.Config{
		Profile:                  community.PaperFaithful,
		Brokers:                  brokers,
		Transport:                tr,
		ResourceQueryDelayPerRow: opts.RowDelay,
		BrokerOptions: func(i int, cfg *broker.Config) {
			cfg.SyntheticCostPerAd = opts.CostPerAd
			if specialized {
				cfg.PeerPruning = true
				for si, s := range streams {
					if streamBroker(si) == i {
						cfg.SpecializationClasses = append(cfg.SpecializationClasses, s.Classes...)
					}
				}
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()

	raIndex := 0
	for si, s := range streams {
		s := s
		si := si
		name := func(i int) string { return fmt.Sprintf("%s-RA%d", s.Name, i+1) }
		brokersFor := func(i int) []string {
			if specialized {
				return []string{c.Brokers[streamBroker(si)].Addr()}
			}
			// Unspecialized: spread resources round-robin over brokers.
			addr := c.Brokers[(raIndex+i)%brokers].Addr()
			return []string{addr}
		}
		if err := s.build(ctx, c, name, brokersFor, opts.RowsPerClass); err != nil {
			return nil, nil, fmt.Errorf("building stream %s: %w", s.Name, err)
		}
		raIndex += s.NumRAs
	}

	if _, err := c.AddMRQ(ctx, "MRQ agent", "generic"); err != nil {
		return nil, nil, err
	}
	users := make(map[string]*useragent.Agent, len(streams))
	for _, s := range streams {
		u, err := c.AddUser(ctx, "user-"+s.Name, "generic")
		if err != nil {
			return nil, nil, err
		}
		users[s.Name] = u
	}

	// Workload: all streams run concurrently (this is what loads the
	// brokers in Experiments 4-5), each submitting QueriesPerStream
	// queries per round.
	results := make(map[string]*stats.Mean, len(streams))
	for _, s := range streams {
		results[s.Name] = &stats.Mean{}
	}
	var mu sync.Mutex
	for round := 0; round < opts.Rounds; round++ {
		var wg sync.WaitGroup
		errCh := make(chan error, len(streams))
		for _, s := range streams {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				u := users[s.Name]
				for q := 0; q < opts.QueriesPerStream; q++ {
					start := time.Now()
					if _, err := u.Submit(ctx, s.Query); err != nil {
						errCh <- fmt.Errorf("stream %s: %w", s.Name, err)
						return
					}
					elapsed := time.Since(start).Seconds()
					latencies.With(s.Name).Observe(elapsed)
					mu.Lock()
					results[s.Name].Add(elapsed)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, nil, err
		}
	}
	out := make(map[string]float64, len(streams))
	snaps := make(map[string]telemetry.HistogramSnapshot, len(streams))
	for name, m := range results {
		out[name] = m.Mean()
		snaps[name] = latencies.With(name).Snapshot()
	}
	return out, snaps, nil
}

// joinClasses renders a stream's class list.
func joinClasses(s Stream) string { return strings.Join(s.Classes, ", ") }
