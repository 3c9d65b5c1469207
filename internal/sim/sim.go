// Package sim is the discrete-event agent simulator of the paper's
// Section 5.2, rebuilt from its description: a processor model (relative
// speed), a network model (one connection per agent, bandwidth + latency),
// hardware reliability (exponential time-to-failure and time-to-repair),
// and the three agent models — query agents that load the system, resource
// agents that define what brokers reason about, and broker agents whose
// behavior mimics the InfoSleuth brokers (local reasoning at a cost
// proportional to stored advertisements, and hop-count-1 "all
// repositories" inter-broker search for specialized brokering).
//
// The simulator regenerates Figures 14-17 and Tables 5-6.
package sim

import (
	"fmt"
	"math"
	"sort"

	"infosleuth/internal/des"
	"infosleuth/internal/stats"
)

// Strategy selects the brokering arrangement of Section 5.2.2.
type Strategy int

// Brokering strategies.
const (
	// Single is one broker holding every advertisement.
	Single Strategy = iota
	// Replicated is N brokers, each holding identical copies of every
	// advertisement; queries are answered locally by whichever broker
	// receives them.
	Replicated
	// Specialized is N brokers with each resource advertising to only
	// some (Redundancy) of them; brokers collaborate on every query.
	Specialized
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Single:
		return "single"
	case Replicated:
		return "replicated"
	case Specialized:
		return "specialized"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config parameterizes one simulation run. Zero values take the defaults
// documented per field — the paper's Section 5.2.1 settings where the text
// survived, and the DESIGN.md choices where it did not.
type Config struct {
	// Seed drives all pseudo-randomness.
	Seed int64
	// DurationSec is the simulated wall-clock; default 3 h.
	DurationSec float64
	// Brokers and Resources size the community.
	Brokers   int
	Resources int
	// Strategy is the brokering arrangement.
	Strategy Strategy
	// Redundancy is how many brokers each resource advertises to under
	// Specialized; default 1. Replicated ignores it (always all).
	Redundancy int
	// UniqueDomains gives each resource its own data domain (the
	// robustness experiments); otherwise domains = Resources/4, giving
	// four satisfying resources per query.
	UniqueDomains bool
	// BrokerKnowledge models brokers advertising their capabilities to
	// each other (Section 4.1): the origin "can know in advance which
	// brokers it can immediately rule out from a query" and skips peers
	// holding no advertisement for the queried domain. The paper states
	// it ran no simulation for this case and conjectures it "would only
	// help"; this flag tests that conjecture.
	BrokerKnowledge bool
	// MeanQueryIntervalSec is the exponential inter-arrival mean of the
	// system's query agent ("QF" in Figure 17).
	MeanQueryIntervalSec float64

	// ProcessorSpeed is the relative compute speed; default 1.
	ProcessorSpeed float64
	// BandwidthKBps is per-connection network bandwidth; default 125
	// ("the high side of megabit Ethernet").
	BandwidthKBps float64
	// LatencySec is per-message network latency; default 0.1 ("very
	// conservative").
	LatencySec float64

	// AdSizeMB is each advertisement's size; default 1.
	AdSizeMB float64
	// ReasoningSecPerMB is broker matching cost per MB of stored
	// advertisements; default 1.
	ReasoningSecPerMB float64
	// ResourceDataMB is each resource's data size; default 1.
	ResourceDataMB float64
	// QuerySecPerMB is resource query cost per MB of data; default 1.
	QuerySecPerMB float64
	// ResultKBPerMatch is the broker reply size per matched agent;
	// default 10.
	ResultKBPerMatch float64
	// QueryMsgKB is the size of query/forward messages; default 1.
	QueryMsgKB float64

	// Complexity scales processing time; bounded Gaussian, default
	// mean 1.0, stddev 0.2, bounded positive.
	ComplexityMean, ComplexityStdDev float64
	// Coverage is the fraction of a resource's data a query returns;
	// bounded Gaussian in [0,1], default mean 0.1, stddev 0.05.
	CoverageMean, CoverageStdDev float64

	// TimeoutSec bounds how long a broker waits for peers; default 60.
	TimeoutSec float64
	// PingIntervalSec is the agent liveness-ping period; default 60.
	PingIntervalSec float64

	// BrokerMTBFSec is the brokers' exponential mean time to failure;
	// zero means perfectly reliable hardware.
	BrokerMTBFSec float64
	// BrokerMTTRSec is the exponential mean time to repair; default
	// 1800.
	BrokerMTTRSec float64
}

func (c Config) withDefaults() Config {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.DurationSec, 3*3600)
	def(&c.MeanQueryIntervalSec, 60)
	def(&c.ProcessorSpeed, 1)
	def(&c.BandwidthKBps, 125)
	def(&c.LatencySec, 0.1)
	def(&c.AdSizeMB, 1)
	def(&c.ReasoningSecPerMB, 1)
	def(&c.ResourceDataMB, 1)
	def(&c.QuerySecPerMB, 1)
	def(&c.ResultKBPerMatch, 10)
	def(&c.QueryMsgKB, 1)
	def(&c.ComplexityMean, 1)
	def(&c.ComplexityStdDev, 0.2)
	def(&c.CoverageMean, 0.1)
	def(&c.CoverageStdDev, 0.05)
	def(&c.TimeoutSec, 60)
	def(&c.PingIntervalSec, 60)
	def(&c.BrokerMTTRSec, 1800)
	if c.Brokers <= 0 {
		c.Brokers = 1
	}
	if c.Resources <= 0 {
		c.Resources = 4
	}
	if c.Redundancy <= 0 {
		c.Redundancy = 1
	}
	if c.Redundancy > c.Brokers {
		c.Redundancy = c.Brokers
	}
	return c
}

// Metrics are the measurements of one run (or an average of runs).
type Metrics struct {
	// QueriesIssued counts queries the query agent sent to brokers.
	QueriesIssued int
	// BrokerReplies counts broker replies received by the query agent.
	BrokerReplies int
	// TargetFound counts replies that contained every resource of the
	// queried domain (for unique domains: the one matching resource —
	// the Table 6 success criterion).
	TargetFound int
	// MeanResponseSec is the average broker response time over replies
	// (the Figure 14-17 metric: query issued → broker reply received).
	MeanResponseSec float64
	// InterBrokerMessages counts query forwards between brokers.
	InterBrokerMessages int
	// ResourceQueries counts data queries sent to resource agents.
	ResourceQueries int
}

// ReplyRate is BrokerReplies/QueriesIssued — the Table 5 metric.
func (m Metrics) ReplyRate() float64 {
	if m.QueriesIssued == 0 {
		return 0
	}
	return float64(m.BrokerReplies) / float64(m.QueriesIssued)
}

// SuccessRate is TargetFound/BrokerReplies — the Table 6 metric
// ("percentage of queries successfully answered", over answered queries).
func (m Metrics) SuccessRate() float64 {
	if m.BrokerReplies == 0 {
		return 0
	}
	return float64(m.TargetFound) / float64(m.BrokerReplies)
}

// link is an agent's single network connection; transfers serialize on it.
type link struct {
	freeAt float64
}

// simBroker is the broker agent model.
type simBroker struct {
	id       int
	up       bool
	epoch    int // bumped on every failure; invalidates in-flight work
	procFree float64
	link     link
	// ads lists resource ids advertised here; domains indexes them.
	ads      []int
	byDomain map[int][]int
	adsMB    float64
}

// simResource is the resource agent model.
type simResource struct {
	id       int
	domain   int
	dataMB   float64
	procFree float64
	link     link
}

// world is one simulation instance.
type world struct {
	cfg       Config
	s         *des.Simulator
	src       *stats.Source
	brokers   []*simBroker
	resources []*simResource
	qaLink    link
	domains   int
	m         Metrics
	// responseMean accumulates broker response times over the run.
	responseMean stats.Mean
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) Metrics {
	cfg = cfg.withDefaults()
	w := &world{
		cfg: cfg,
		s:   des.New(),
		src: stats.NewSource(cfg.Seed),
	}
	w.build()
	w.s.Run(cfg.DurationSec)
	w.m.MeanResponseSec = w.responseMean.Mean()
	return w.m
}

// RunAveraged runs the simulation `runs` times with consecutive seeds and
// averages the metrics — the paper ran each experiment several times "to
// ensure that we were not reporting results from a particular anomalous
// pseudo-random number sequence".
func RunAveraged(cfg Config, runs int) Metrics {
	if runs <= 0 {
		runs = 1
	}
	var agg Metrics
	var resp stats.Mean
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		m := Run(c)
		agg.QueriesIssued += m.QueriesIssued
		agg.BrokerReplies += m.BrokerReplies
		agg.TargetFound += m.TargetFound
		agg.InterBrokerMessages += m.InterBrokerMessages
		agg.ResourceQueries += m.ResourceQueries
		if m.BrokerReplies > 0 {
			resp.Add(m.MeanResponseSec)
		}
	}
	agg.MeanResponseSec = resp.Mean()
	return agg
}

func (w *world) build() {
	cfg := w.cfg
	w.domains = cfg.Resources
	if !cfg.UniqueDomains {
		w.domains = cfg.Resources / 4
		if w.domains < 1 {
			w.domains = 1
		}
	}
	for i := 0; i < cfg.Brokers; i++ {
		w.brokers = append(w.brokers, &simBroker{
			id: i, up: true, byDomain: make(map[int][]int),
		})
	}
	for i := 0; i < cfg.Resources; i++ {
		w.resources = append(w.resources, &simResource{
			id:     i,
			domain: i % w.domains,
			dataMB: cfg.ResourceDataMB,
		})
	}
	// Advertising: replicated/single put every ad everywhere; specialized
	// picks Redundancy brokers uniformly at random per resource ("to
	// prevent any regular distribution pattern of data domains over the
	// brokers").
	for _, r := range w.resources {
		var targets []int
		switch cfg.Strategy {
		case Single, Replicated:
			for b := range w.brokers {
				targets = append(targets, b)
			}
		case Specialized:
			perm := w.src.Perm(cfg.Brokers)
			targets = perm[:cfg.Redundancy]
		}
		for _, bi := range targets {
			b := w.brokers[bi]
			b.ads = append(b.ads, r.id)
			b.byDomain[r.domain] = append(b.byDomain[r.domain], r.id)
			b.adsMB += cfg.AdSizeMB
		}
	}
	// Failure processes.
	if cfg.BrokerMTBFSec > 0 {
		for _, b := range w.brokers {
			w.scheduleFailure(b)
		}
	}
	// Liveness pings (background load).
	if cfg.PingIntervalSec > 0 {
		for _, r := range w.resources {
			w.schedulePing(r)
		}
	}
	// The query agent.
	w.scheduleNextQuery()
}

func (w *world) scheduleFailure(b *simBroker) {
	w.s.Schedule(w.src.Exponential(w.cfg.BrokerMTBFSec), func() {
		b.up = false
		b.epoch++
		w.s.Schedule(w.src.Exponential(w.cfg.BrokerMTTRSec), func() {
			b.up = true
			b.procFree = w.s.Now()
			w.scheduleFailure(b)
		})
	})
}

func (w *world) schedulePing(r *simResource) {
	w.s.Schedule(w.cfg.PingIntervalSec, func() {
		// Ping a random broker: one small message each way; brokers
		// answer without measurable compute.
		b := w.brokers[w.src.Intn(len(w.brokers))]
		arrive := w.transfer(&r.link, &b.link, w.cfg.QueryMsgKB)
		if b.up {
			w.s.At(arrive, func() {
				w.transfer(&b.link, &r.link, w.cfg.QueryMsgKB)
			})
		}
		w.schedulePing(r)
	})
}

// transfer moves sizeKB from one link to the other, serializing on both,
// and returns the arrival time.
func (w *world) transfer(from, to *link, sizeKB float64) float64 {
	now := w.s.Now()
	start := math.Max(now, math.Max(from.freeAt, to.freeAt))
	dur := sizeKB / w.cfg.BandwidthKBps
	from.freeAt = start + dur
	to.freeAt = start + dur
	return start + dur + w.cfg.LatencySec
}

func (w *world) complexity() float64 {
	return w.src.BoundedGaussian(w.cfg.ComplexityMean, w.cfg.ComplexityStdDev,
		1e-6, w.cfg.ComplexityMean+6*w.cfg.ComplexityStdDev+1)
}

func (w *world) coverage() float64 {
	return w.src.BoundedGaussian(w.cfg.CoverageMean, w.cfg.CoverageStdDev, 0, 1)
}

func (w *world) scheduleNextQuery() {
	w.s.Schedule(w.src.Exponential(w.cfg.MeanQueryIntervalSec), func() {
		w.issueQuery()
		w.scheduleNextQuery()
	})
}

// query tracks one query's lifecycle.
type query struct {
	issuedAt   float64
	domain     int
	complexity float64
	coverage   float64
}

func (w *world) issueQuery() {
	w.m.QueriesIssued++
	q := &query{
		issuedAt:   w.s.Now(),
		domain:     w.src.Intn(w.domains),
		complexity: w.complexity(),
		coverage:   w.coverage(),
	}
	b := w.brokers[w.src.Intn(len(w.brokers))]
	arrive := w.transfer(&w.qaLink, &b.link, w.cfg.QueryMsgKB)
	w.s.At(arrive, func() { w.brokerReceive(b, q) })
}

// brokerReceive handles a query arriving at a broker: local reasoning,
// then (specialized multibroker) the inter-broker search.
func (w *world) brokerReceive(b *simBroker, q *query) {
	if !b.up {
		return // the query is lost; the query agent never hears back
	}
	epoch := b.epoch
	start := math.Max(w.s.Now(), b.procFree)
	proc := w.cfg.ReasoningSecPerMB * b.adsMB * q.complexity / w.cfg.ProcessorSpeed
	b.procFree = start + proc
	w.s.At(start+proc, func() {
		if !b.up || b.epoch != epoch {
			return
		}
		local := append([]int(nil), b.byDomain[q.domain]...)
		if w.cfg.Strategy != Specialized || len(w.brokers) == 1 {
			w.replyToQueryAgent(b, q, local)
			return
		}
		w.gatherFromPeers(b, q, local, epoch)
	})
}

// gather tracks an inter-broker collection in progress.
type gather struct {
	matches  map[int]bool
	waiting  int
	deadline *des.Event
	done     bool
}

// gatherFromPeers forwards the query to every peer broker simultaneously
// (hop count 1, "all repositories"), merging replies; dead peers are
// covered by the timeout.
func (w *world) gatherFromPeers(origin *simBroker, q *query, local []int, epoch int) {
	g := &gather{matches: make(map[int]bool)}
	for _, id := range local {
		g.matches[id] = true
	}
	finish := func() {
		if g.done {
			return
		}
		g.done = true
		if g.deadline != nil {
			w.s.Cancel(g.deadline)
		}
		if !origin.up || origin.epoch != epoch {
			return
		}
		ids := make([]int, 0, len(g.matches))
		for id := range g.matches {
			ids = append(ids, id)
		}
		// The order of ids is the order their transfers are charged to
		// the shared query-agent link, so map order would make a seeded
		// run irreproducible.
		sort.Ints(ids)
		w.replyToQueryAgent(origin, q, ids)
	}
	for _, p := range w.brokers {
		if p == origin {
			continue
		}
		if w.cfg.BrokerKnowledge && len(p.byDomain[q.domain]) == 0 {
			// The origin knows from the peer's capability
			// advertisement that it cannot contribute.
			continue
		}
		p := p
		w.m.InterBrokerMessages++
		arrive := w.transfer(&origin.link, &p.link, w.cfg.QueryMsgKB)
		g.waiting++
		w.s.At(arrive, func() {
			if !p.up {
				return // never answers; the deadline handles it
			}
			pEpoch := p.epoch
			start := math.Max(w.s.Now(), p.procFree)
			proc := w.cfg.ReasoningSecPerMB * p.adsMB * q.complexity / w.cfg.ProcessorSpeed
			p.procFree = start + proc
			w.s.At(start+proc, func() {
				if !p.up || p.epoch != pEpoch {
					return
				}
				peerMatches := p.byDomain[q.domain]
				size := math.Max(w.cfg.QueryMsgKB, float64(len(peerMatches))*w.cfg.ResultKBPerMatch)
				back := w.transfer(&p.link, &origin.link, size)
				w.s.At(back, func() {
					if g.done {
						return
					}
					for _, id := range peerMatches {
						g.matches[id] = true
					}
					g.waiting--
					if g.waiting == 0 {
						finish()
					}
				})
			})
		})
	}
	if g.waiting == 0 {
		finish()
		return
	}
	// On reliable hardware every live peer eventually answers, so the
	// origin waits for all repositories (the paper's "all repositories"
	// follow option). With failures enabled, a peer can die mid-search
	// and never answer; the timeout bounds the wait.
	if w.cfg.BrokerMTBFSec > 0 {
		g.deadline = w.s.Schedule(w.cfg.TimeoutSec, finish)
	}
}

// replyToQueryAgent sends the match list back and, on receipt, has the
// query agent query the matched resources (load generation).
func (w *world) replyToQueryAgent(b *simBroker, q *query, matches []int) {
	size := math.Max(w.cfg.QueryMsgKB, float64(len(matches))*w.cfg.ResultKBPerMatch)
	arrive := w.transfer(&b.link, &w.qaLink, size)
	w.s.At(arrive, func() {
		w.m.BrokerReplies++
		w.responseMean.Add(w.s.Now() - q.issuedAt)
		if w.domainCovered(q.domain, matches) {
			w.m.TargetFound++
		}
		for _, id := range matches {
			r := w.resources[id]
			w.m.ResourceQueries++
			qArrive := w.transfer(&w.qaLink, &r.link, w.cfg.QueryMsgKB)
			w.s.At(qArrive, func() {
				start := math.Max(w.s.Now(), r.procFree)
				proc := w.cfg.QuerySecPerMB * r.dataMB * q.complexity / w.cfg.ProcessorSpeed
				r.procFree = start + proc
				w.s.At(start+proc, func() {
					resultKB := math.Max(w.cfg.QueryMsgKB, q.coverage*r.dataMB*1024)
					w.transfer(&r.link, &w.qaLink, resultKB)
				})
			})
		}
	})
}

// domainCovered reports whether the reply contains every resource of the
// queried domain (with unique domains, exactly the one matching resource —
// the Table 6 criterion).
func (w *world) domainCovered(domain int, matches []int) bool {
	in := make(map[int]bool, len(matches))
	for _, id := range matches {
		in[id] = true
	}
	for _, r := range w.resources {
		if r.domain == domain && !in[r.id] {
			return false
		}
	}
	return true
}
