// Subscription-pipeline harness: the standing-query benchmark behind
// BENCH_subs.json (`experiments -run subbench`). It sweeps standing-query
// populations from a thousand to a hundred thousand on one resource
// agent, registers each through the real subscribe wire form, then
// replays a skewed change stream (80% of inserts land in the hot 10% of
// the value domain) and measures how many standing-query re-evaluations
// the class+region index actually performs versus evaluating every
// standing query on every change (subscriptions x changes). A deliberately
// stalled subscriber rides along at every size to prove per-subscriber
// sender isolation. Like BENCH_scale.json this measures the
// implementation, not the paper's Section 5 evaluation, none of whose
// artifacts subscribes or inserts a row.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/transport"
)

// SubBenchOptions parameterizes the sweep; the zero value is the full
// 1k → 100k artifact run.
type SubBenchOptions struct {
	// Quick shrinks the sweep to a CI-sized smoke run (seconds).
	Quick bool
	// Seed drives subscription placement and the change stream; zero
	// means 1999.
	Seed int64
	// Sizes overrides the swept standing-query populations.
	Sizes []int
}

// Fixed geometry: standing queries select a window that is 1% of the
// value domain, so an insert's changed region overlaps ~1% of them —
// the selectivity the ≤5% acceptance bar is stated against.
const (
	subBenchDomain   = 100_000
	subBenchWidth    = subBenchDomain / 100
	subBenchBaseRows = 128
	subBenchHotFrac  = 0.10
	subBenchHotProb  = 0.80
)

// SubBenchPoint measures one standing-query population.
type SubBenchPoint struct {
	Subs    int `json:"subs"`
	Changes int `json:"changes"`

	// Registration through the subscribe wire form, and the GC-settled
	// heap each registered standing query retains (index entry, region,
	// lazily-allocated queue).
	RegisterSeconds float64 `json:"register_seconds"`
	RegisterPerSec  float64 `json:"register_per_sec"`
	HeapPerSubKB    float64 `json:"heap_per_sub_kb"`

	// IndexedEvals is what the class+region index re-evaluated;
	// SkippedEvals is what it proved disjoint without running SQL;
	// EvalAllEvals is what evaluating everything would have run
	// (subscriptions × changes). EvalFraction = indexed / evaluate-all.
	IndexedEvals int     `json:"indexed_evals"`
	SkippedEvals int     `json:"skipped_evals"`
	EvalAllEvals int     `json:"eval_all_evals"`
	EvalFraction float64 `json:"eval_fraction"`

	// StreamSeconds is the mutation loop's wall clock — insert plus
	// NotifyChange, with delivery riding sender goroutines off the
	// mutation path. DrainSeconds is the post-stream flush (stalled
	// subscriber released first).
	StreamSeconds           float64 `json:"stream_seconds"`
	MutationMicrosPerChange float64 `json:"mutation_micros_per_change"`
	DrainSeconds            float64 `json:"drain_seconds"`
	Updates                 int     `json:"updates_delivered"`

	// FastCatchupSeconds is how long after the last mutation the fast
	// whole-class subscriber saw the final table state while its stalled
	// peer was still parked mid-delivery; StalledIsolated is the
	// per-subscriber isolation assertion.
	FastCatchupSeconds float64 `json:"fast_catchup_seconds"`
	StalledIsolated    bool    `json:"stalled_isolated"`
}

// SubBenchResult is the checked-in BENCH_subs.json shape.
type SubBenchResult struct {
	Note       string          `json:"note"`
	Quick      bool            `json:"quick,omitempty"`
	GoMaxProcs int             `json:"gomaxprocs"`
	QueueCap   int             `json:"queue_cap"`
	Points     []SubBenchPoint `json:"points"`

	// Acceptance summaries: indexed matching must beat evaluate-all at
	// every size, and at the largest population the indexed path must
	// run ≤5% of the evaluate-all re-evaluations.
	EvalFractionAtMax   float64 `json:"eval_fraction_at_max"`
	IndexedWithin5Pct   bool    `json:"indexed_within_5pct_at_max"`
	IndexedBeatsEvalAll bool    `json:"indexed_beats_eval_all"`
}

// subBenchDB builds the shared base table: C2(id, a) with a spread
// evenly across the value domain so each 1%-window standing query owns
// a couple of base rows and update payloads stay small.
func subBenchDB() (*relational.Database, error) {
	db := relational.NewDatabase()
	tbl, err := db.Create(relational.Schema{
		Name: "C2",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeString},
			{Name: "a", Type: relational.TypeNumber},
		},
		Key: "id",
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < subBenchBaseRows; i++ {
		tbl.MustInsert(relational.Row{
			relational.Str(fmt.Sprintf("base-%04d", i)),
			relational.Num(float64(i * subBenchDomain / subBenchBaseRows)),
		})
	}
	return db, nil
}

func subBenchAgent(tr transport.Transport, name string) (*resource.Agent, error) {
	db, err := subBenchDB()
	if err != nil {
		return nil, err
	}
	ra, err := resource.New(resource.Config{
		Name:      name,
		Transport: tr,
		DB:        db,
		Fragment:  ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
		World:     ontology.NewWorld(ontology.Generic()),
	})
	if err != nil {
		return nil, err
	}
	if err := ra.Start(); err != nil {
		return nil, err
	}
	return ra, nil
}

// subBenchSubscribe registers one standing query through the wire form.
func subBenchSubscribe(tr transport.Transport, ra *resource.Agent, addr, sql string) error {
	msg := kqml.New(kqml.Subscribe, "subbench", &kqml.SubscribeContent{
		SQL:               sql,
		SubscriberName:    "subbench",
		SubscriberAddress: addr,
	})
	reply, err := tr.Call(context.Background(), ra.Addr(), msg)
	if err != nil {
		return err
	}
	if reply.Performative != kqml.Tell {
		return fmt.Errorf("subscribe = %s: %s", reply.Performative, kqml.ReasonOf(reply))
	}
	return nil
}

// subBenchChanges draws the skewed change stream: subBenchHotProb of the
// inserts land in the hot subBenchHotFrac slice of the domain.
func subBenchChanges(r *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if r.Float64() < subBenchHotProb {
			vals[i] = r.Float64() * subBenchDomain * subBenchHotFrac
		} else {
			vals[i] = r.Float64() * subBenchDomain
		}
	}
	return vals
}

// subBenchPoint runs one standing-query population through the CDC
// pipeline.
func subBenchPoint(seed int64, subs, changes int) (SubBenchPoint, error) {
	pt := SubBenchPoint{Subs: subs, Changes: changes}
	tr := transport.NewInProc()
	ra, err := subBenchAgent(tr, fmt.Sprintf("subbench-%d", subs))
	if err != nil {
		return pt, err
	}
	defer ra.Stop()

	// One shared endpoint absorbs every range-subscription update; a
	// second tracks the fast whole-class subscriber's view of the table
	// so catch-up is observable; a third parks mid-delivery until
	// released, simulating a stalled consumer.
	var rangeUpdates, fastUpdates, fastMaxRows atomic.Int64
	rangeL, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		rangeUpdates.Add(1)
		return kqml.New(kqml.Tell, "subbench", &kqml.UpdateAck{})
	})
	if err != nil {
		return pt, err
	}
	defer rangeL.Close()
	fastL, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		var uc kqml.UpdateContent
		if err := msg.DecodeContent(&uc); err == nil {
			fastUpdates.Add(1)
			if n := int64(len(uc.Result.Rows)); n > fastMaxRows.Load() {
				fastMaxRows.Store(n)
			}
		}
		return kqml.New(kqml.Tell, "subbench", &kqml.UpdateAck{})
	})
	if err != nil {
		return pt, err
	}
	defer fastL.Close()
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()
	stalledL, err := tr.Listen("", func(msg *kqml.Message) *kqml.Message {
		<-gate
		return kqml.New(kqml.Tell, "subbench", &kqml.UpdateAck{})
	})
	if err != nil {
		return pt, err
	}
	defer stalledL.Close()

	// Register the population, bracketed by GC-settled heap readings so
	// the artifact records what one standing query costs to keep.
	r := rand.New(rand.NewSource(seed))
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < subs; i++ {
		lo := int(r.Float64() * float64(subBenchDomain-subBenchWidth))
		sql := fmt.Sprintf("SELECT id FROM C2 WHERE a BETWEEN %d AND %d", lo, lo+subBenchWidth)
		if err := subBenchSubscribe(tr, ra, rangeL.Addr(), sql); err != nil {
			return pt, fmt.Errorf("register sub %d: %w", i, err)
		}
	}
	pt.RegisterSeconds = time.Since(start).Seconds()
	pt.RegisterPerSec = float64(subs) / pt.RegisterSeconds
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		pt.HeapPerSubKB = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(subs) / 1024
	}
	if err := subBenchSubscribe(tr, ra, fastL.Addr(), "SELECT id FROM C2"); err != nil {
		return pt, err
	}
	if err := subBenchSubscribe(tr, ra, stalledL.Addr(), "SELECT id FROM C2"); err != nil {
		return pt, err
	}
	total := subs + 2

	// The change stream: mutate the table, publish the typed change. The
	// loop's wall clock is the mutation path — delivery is elsewhere.
	tbl, ok := ra.DB().Table("C2")
	if !ok {
		return pt, fmt.Errorf("no C2 table")
	}
	ctx := context.Background()
	vals := subBenchChanges(r, changes)
	start = time.Now()
	for i, v := range vals {
		row := relational.Row{relational.Str(fmt.Sprintf("chg-%05d", i)), relational.Num(v)}
		if err := tbl.Insert(row); err != nil {
			return pt, err
		}
		matched, skipped := ra.NotifyChange(ctx, resource.Change{Class: "C2", Rows: []relational.Row{row}})
		pt.IndexedEvals += matched
		pt.SkippedEvals += skipped
	}
	pt.StreamSeconds = time.Since(start).Seconds()
	pt.MutationMicrosPerChange = pt.StreamSeconds * 1e6 / float64(changes)
	pt.EvalAllEvals = total * changes
	pt.EvalFraction = float64(pt.IndexedEvals) / float64(pt.EvalAllEvals)

	// Catch-up: with the stalled subscriber still parked, the fast
	// whole-class subscriber must reach the final table state.
	wantRows := int64(subBenchBaseRows + changes)
	start = time.Now()
	deadline := start.Add(15 * time.Second)
	for fastMaxRows.Load() < wantRows && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	pt.FastCatchupSeconds = time.Since(start).Seconds()
	pt.StalledIsolated = fastMaxRows.Load() >= wantRows

	// Release the stalled consumer and drain what coalescing kept
	// bounded behind it.
	release()
	start = time.Now()
	fctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := ra.FlushNotifications(fctx); err != nil {
		return pt, fmt.Errorf("drain: %w", err)
	}
	pt.DrainSeconds = time.Since(start).Seconds()
	pt.Updates = int(rangeUpdates.Load() + fastUpdates.Load())
	return pt, nil
}

// SubBench runs the sweep and checks the acceptance bars in-run.
func SubBench(opts SubBenchOptions) (*SubBenchResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1999
	}
	sizes := opts.Sizes
	changes := 200
	if len(sizes) == 0 {
		if opts.Quick {
			sizes = []int{250, 1_000}
		} else {
			sizes = []int{1_000, 10_000, 100_000}
		}
	}
	if opts.Quick {
		changes = 40
	}
	res := &SubBenchResult{
		Note:       "standing-query CDC pipeline sweep: indexed matching vs evaluate-all under a skewed change stream",
		Quick:      opts.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		QueueCap:   64,
	}
	for _, n := range sizes {
		pt, err := subBenchPoint(opts.Seed, n, changes)
		if err != nil {
			return nil, fmt.Errorf("subbench %d: %w", n, err)
		}
		res.Points = append(res.Points, pt)
	}

	last := res.Points[len(res.Points)-1]
	res.EvalFractionAtMax = last.EvalFraction
	res.IndexedWithin5Pct = last.EvalFraction <= 0.05
	res.IndexedBeatsEvalAll = true
	for _, pt := range res.Points {
		if pt.IndexedEvals >= pt.EvalAllEvals {
			res.IndexedBeatsEvalAll = false
		}
	}

	// Acceptance bars fail the run, not just the artifact.
	for _, pt := range res.Points {
		if !pt.StalledIsolated {
			return nil, fmt.Errorf("subbench %d: stalled subscriber delayed the fast one (catch-up %.1fs)", pt.Subs, pt.FastCatchupSeconds)
		}
		if pt.HeapPerSubKB > 16 {
			return nil, fmt.Errorf("subbench %d: %.1f KB heap per standing query exceeds the 16 KB bound", pt.Subs, pt.HeapPerSubKB)
		}
	}
	if !res.IndexedBeatsEvalAll {
		return nil, fmt.Errorf("subbench: indexed evals did not beat evaluate-all")
	}
	if !res.IndexedWithin5Pct {
		return nil, fmt.Errorf("subbench: eval fraction %.3f at %d subs exceeds the 5%% bar", last.EvalFraction, last.Subs)
	}
	return res, nil
}

// WriteSubBench runs the sweep and writes the JSON artifact.
func WriteSubBench(path string, opts SubBenchOptions) (*SubBenchResult, error) {
	res, err := SubBench(opts)
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
