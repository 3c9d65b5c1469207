// Scale harness: the repository size sweep behind BENCH_scale.json
// (`experiments -run scale`). It sweeps repository sizes from thousands to
// a million advertisements and, at each size, replays the same
// DES-generated churn/search schedule (internal/sim.BuildScaleSchedule)
// against the repository behind a match cache, measuring match latency
// (p50/p95), concurrent search throughput under churn, and repository
// heap. Like BENCH_broker.json this measures the implementation, not the
// paper's Section 5 evaluation.
package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/ontology"
	"infosleuth/internal/sim"
)

// ScaleBenchOptions parameterizes the sweep; the zero value is the full
// 10k → 1M artifact run.
type ScaleBenchOptions struct {
	// Quick shrinks the sweep to a CI-sized smoke run (seconds, not
	// minutes).
	Quick bool
	// Seed drives the churn/search schedule; zero means 1999.
	Seed int64
	// Sizes overrides the swept repository sizes.
	Sizes []int
}

// ScalePoint measures the repository at one size.
type ScalePoint struct {
	Ads              int     `json:"ads"`
	BuildSeconds     float64 `json:"build_seconds"`
	SearchP50Micros  float64 `json:"search_p50_micros"`
	SearchP95Micros  float64 `json:"search_p95_micros"`
	ThroughputPerSec float64 `json:"concurrent_searches_per_sec"`
	RepoHeapMB       float64 `json:"repo_heap_mb"`
}

// ScaleResult is the checked-in BENCH_scale.json shape.
type ScaleResult struct {
	Note       string       `json:"note"`
	Quick      bool         `json:"quick,omitempty"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Points     []ScalePoint `json:"points"`
	// AdsGrowthX and P95GrowthX compare the sweep's endpoints: sub-linear
	// p95 growth means the latter stays below the former.
	AdsGrowthX   float64 `json:"ads_growth_x"`
	P95GrowthX   float64 `json:"p95_growth_x"`
	P95Sublinear bool    `json:"p95_sublinear"`
}

// scaleChurnAds builds the flapping-agent pool.
func scaleChurnAds(n int) []*ontology.Advertisement {
	ads := make([]*ontology.Advertisement, 0, n)
	for i := 0; i < n; i++ {
		class := fmt.Sprintf("C%d", i%6+1)
		ads = append(ads, &ontology.Advertisement{
			Name:             fmt.Sprintf("churn-%05d", i),
			Address:          fmt.Sprintf("inproc://churn-%05d", i),
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

// scaleQueries builds the fixed query-stream buckets for an ads-sized
// repository: class plus a range constraint whose window overlaps about
// ten advertisements' ranges, so every bucket matches a small, bounded
// set whatever the repository's size.
func scaleQueries(buckets, ads int) []*ontology.Query {
	qs := make([]*ontology.Query, 0, buckets)
	span := ads * 10 / buckets
	for b := 0; b < buckets; b++ {
		class := fmt.Sprintf("C%d", b%6+1)
		lo := b * span
		qs = append(qs, &ontology.Query{
			Type:        ontology.TypeResource,
			Ontology:    "generic",
			Classes:     []string{class},
			Constraints: constraint.MustParse(fmt.Sprintf("%s.a between %d and %d", class, lo, lo+50)),
		})
	}
	return qs
}

// buildScaleRepo fills a repository and reports build time and the heap
// the populated repository retains (GC-settled delta).
func buildScaleRepo(base, churn []*ontology.Advertisement) (*broker.Repository, float64, float64, error) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	repo := broker.NewRepository()
	for _, ad := range base {
		if err := repo.Put(ad); err != nil {
			return nil, 0, 0, err
		}
	}
	// Half the churn pool starts advertised, matching the schedule's
	// alternating Put/Remove from an arbitrary phase.
	for i := 0; i < len(churn)/2; i++ {
		if err := repo.Put(churn[i]); err != nil {
			return nil, 0, 0, err
		}
	}
	buildSec := time.Since(start).Seconds()
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	heapMB := 0.0
	if m1.HeapAlloc > m0.HeapAlloc {
		heapMB = float64(m1.HeapAlloc-m0.HeapAlloc) / (1 << 20)
	}
	return repo, buildSec, heapMB, nil
}

// replayScaleSchedule applies the DES schedule sequentially — churn ops
// mutate the repository, search ops run the cached matcher — and returns
// each search's wall-clock latency in microseconds.
func replayScaleSchedule(repo *broker.Repository, m broker.Matcher, ops []sim.ScaleOp, churn []*ontology.Advertisement, queries []*ontology.Query) ([]float64, error) {
	lat := make([]float64, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case sim.ScalePut:
			if err := repo.Put(churn[op.Index]); err != nil {
				return nil, err
			}
		case sim.ScaleRemove:
			repo.Remove(churn[op.Index].Name)
		case sim.ScaleSearch:
			q := queries[op.Index]
			start := time.Now()
			if _, err := m.Match(repo, q); err != nil {
				return nil, err
			}
			lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return lat, nil
}

// scaleChurnInterval paces the throughput phase's mutation stream:
// ~100 mutations/s, an aggressive advertisement churn rate that still
// leaves searches room to land between invalidations. (Pacing much
// faster than a search's own latency degenerates the sweep into
// recompute-everything-per-search and measures nothing but raw match
// speed.)
const scaleChurnInterval = 10 * time.Millisecond

// concurrentScaleThroughput measures searches completed per second with
// searcher goroutines hammering the query buckets while a churn
// goroutine mutates the repository every scaleChurnInterval, so every
// mutation invalidates all cached work and searches keep recomputing.
func concurrentScaleThroughput(repo *broker.Repository, m broker.Matcher, churn []*ontology.Advertisement, queries []*ontology.Query, dur time.Duration) (float64, error) {
	const searchers = 4
	var done atomic.Int64
	var firstErr atomic.Value
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // churner
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			ad := churn[i%len(churn)]
			if i%2 == 0 {
				if err := repo.Put(ad); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			} else {
				repo.Remove(ad.Name)
			}
			time.Sleep(scaleChurnInterval)
		}
	}()
	start := time.Now()
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; !stop.Load(); i++ {
				if _, err := m.Match(repo, queries[i%len(queries)]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
			}
		}(s)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return float64(done.Load()) / elapsed, nil
}

func percentileMicros(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// scalePoint measures the repository at one size.
func scalePoint(base, churn []*ontology.Advertisement, queries []*ontology.Query, ops []sim.ScaleOp, thrDur time.Duration) (ScalePoint, error) {
	repo, buildSec, heapMB, err := buildScaleRepo(base, churn)
	if err != nil {
		return ScalePoint{}, err
	}
	m := broker.NewCachedMatcher(&broker.DirectMatcher{World: BenchWorld()}, 0)
	// Warm every query bucket once so the replay measures steady-state
	// behavior — churn-driven cache misses — rather than first-touch
	// computes.
	for _, q := range queries {
		if _, err := m.Match(repo, q); err != nil {
			return ScalePoint{}, err
		}
	}
	lat, err := replayScaleSchedule(repo, m, ops, churn, queries)
	if err != nil {
		return ScalePoint{}, err
	}
	thr, err := concurrentScaleThroughput(repo, m, churn, queries, thrDur)
	if err != nil {
		return ScalePoint{}, err
	}
	return ScalePoint{
		Ads:              len(base),
		BuildSeconds:     buildSec,
		SearchP50Micros:  percentileMicros(lat, 0.50),
		SearchP95Micros:  percentileMicros(lat, 0.95),
		ThroughputPerSec: thr,
		RepoHeapMB:       heapMB,
	}, nil
}

// ScaleBench runs the sweep.
func ScaleBench(opts ScaleBenchOptions) (*ScaleResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1999
	}
	sizes := opts.Sizes
	if len(sizes) == 0 {
		if opts.Quick {
			sizes = []int{4_000, 16_000}
		} else {
			sizes = []int{10_000, 100_000, 1_000_000}
		}
	}
	churnAgents, buckets := 256, 16
	schedDur, thrDur := 10.0, time.Second
	if opts.Quick {
		churnAgents = 64
		schedDur, thrDur = 5.0, 250*time.Millisecond
	}
	churn := scaleChurnAds(churnAgents)
	ops := sim.BuildScaleSchedule(sim.ScaleScheduleConfig{
		Seed:         opts.Seed,
		Duration:     schedDur,
		ChurnPerSec:  6,
		SearchPerSec: 12,
		ChurnAgents:  churnAgents,
		QueryBuckets: buckets,
	})

	res := &ScaleResult{
		Note:       "repository scale sweep under concurrent churn; measures the implementation, not a Section 5 artifact",
		Quick:      opts.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, n := range sizes {
		base := BenchAds(n)
		queries := scaleQueries(buckets, n)
		pt, err := scalePoint(base, churn, queries, ops, thrDur)
		if err != nil {
			return nil, fmt.Errorf("scale %d: %w", n, err)
		}
		res.Points = append(res.Points, pt)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	res.AdsGrowthX = float64(last.Ads) / float64(first.Ads)
	if first.SearchP95Micros > 0 {
		res.P95GrowthX = last.SearchP95Micros / first.SearchP95Micros
	}
	res.P95Sublinear = res.P95GrowthX < res.AdsGrowthX
	return res, nil
}

// WriteScaleBench runs the sweep and writes the JSON artifact.
func WriteScaleBench(path string, opts ScaleBenchOptions) (*ScaleResult, error) {
	res, err := ScaleBench(opts)
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
