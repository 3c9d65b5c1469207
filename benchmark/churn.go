package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/broker"
	"infosleuth/internal/constraint"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
)

// broker_churn's geometry. Each broker holds churnAdsPerBroker resource
// advertisements over six classes; within a class, consecutive ads'
// ranges start churnAdStep apart and are churnAdWidth wide, and broker
// 2's are offset by half a step. A query window churnQueryWidth wide
// therefore overlaps (churnAdWidth+churnQueryWidth)/churnAdStep = 5 ads
// per broker: about 10 matches after the one forward.
const (
	churnBrokers      = 2
	churnAdsPerBroker = 10_000
	churnShards       = 8 // the scale harness's ~2k-ads-per-shard rule
	churnClasses      = 6
	churnAdStep       = 60
	churnAdWidth      = 250
	churnQueryWidth   = 50
	churnQueryKeys    = 4000
	// churnQueryStep spreads the query keys over the ads' whole domain.
	churnQueryStep = churnAdsPerBroker / churnClasses * churnAdStep / churnQueryKeys
	// churnLive is how many synthetic ads each client keeps advertised:
	// warm-up advertises this many, and from then on every advertise is
	// paired with an unadvertise of the oldest, so the repositories stay
	// the same size.
	churnLive      = 32
	churnWarmupOps = 500
)

// Op kinds, in deck order, and their shares in tenths.
const (
	churnQuery = iota
	churnAdvertise
	churnUnadvertise
)

var churnShares = []int{8, 1, 1}

func churnClass(c int) string { return fmt.Sprintf("C%d", c+1) }

func rangeSet(class string, lo, hi int) *constraint.Set {
	return constraint.NewSet(constraint.Atom{
		Field: strings.ToLower(class) + ".a", Interval: constraint.NewRange(float64(lo), float64(hi)),
	})
}

func resourceAd(name, class string, lo, hi int) *ontology.Advertisement {
	return &ontology.Advertisement{
		Name:             name,
		Address:          "tcp://127.0.0.1:9", // never called: the workload stops at the broker
		Type:             ontology.TypeResource,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangSQL2},
		Conversations:    []string{ontology.ConvAskAll},
		Capabilities:     []string{ontology.CapRelationalQueryProcessing},
		Content: []ontology.Fragment{{
			Ontology: "generic", Classes: []string{class}, Constraints: rangeSet(class, lo, hi),
		}},
	}
}

// baseAd is broker b's i-th preloaded advertisement. Base ads are never
// unadvertised, so the oracle knows exactly which of them a query must
// return.
func baseAdName(b, i int) string { return fmt.Sprintf("ra-%d-%05d", b+1, i) }

func baseAdLo(b, i int) int { return (i/churnClasses)*churnAdStep + b*churnAdStep/2 }

func baseAd(b, i int) *ontology.Advertisement {
	lo := baseAdLo(b, i)
	return resourceAd(baseAdName(b, i), churnClass(i%churnClasses), lo, lo+churnAdWidth)
}

// churnAd is the s-th synthetic advertisement of client c: the ads that
// come and go beside the queries.
func churnAd(c int, s int32) *ontology.Advertisement {
	lo := (int(s)*zipfScramble + c*1999) % churnQueryKeys * churnQueryStep
	return resourceAd(fmt.Sprintf("churn-%d-%d", c+1, s), churnClass(int(s)%churnClasses), lo, lo+churnAdWidth)
}

// churnStream deals a client's ops and tracks which of its synthetic ads
// are advertised, so an unadvertise always names a live one.
type churnStream struct {
	kinds      *deck
	keys       *zipfKeys
	live       []int32 // serials, oldest first
	nextSerial int32
}

func (s *churnStream) next() op {
	switch k := s.kinds.next(); k {
	case churnAdvertise:
		serial := s.nextSerial
		s.nextSerial++
		s.live = append(s.live, serial)
		return op{Kind: k, Arg: serial}
	case churnUnadvertise:
		serial := s.live[0]
		s.live = s.live[1:]
		return op{Kind: k, Arg: serial}
	default:
		return op{Kind: k, Arg: s.keys.next()}
	}
}

type churnWorkload struct {
	seed int64

	base    [churnBrokers][]*ontology.Advertisement
	queries []*ontology.Query
	// wantBase[k] lists the base ads query k must return.
	wantBase [][]string

	clients []*agent.Base
	homes   []string // each client's broker address
	streams []*churnStream
	handles layerHandles
}

func newChurnWorkload(seed int64) *churnWorkload {
	w := &churnWorkload{seed: seed}
	for b := 0; b < churnBrokers; b++ {
		w.base[b] = make([]*ontology.Advertisement, churnAdsPerBroker)
		for i := range w.base[b] {
			w.base[b][i] = baseAd(b, i)
		}
	}
	perClass := func(c int) int { // ads of class c per broker
		return (churnAdsPerBroker - c + churnClasses - 1) / churnClasses
	}
	for k := 0; k < churnQueryKeys; k++ {
		c, lo := k%churnClasses, k*churnQueryStep
		hi := lo + churnQueryWidth
		w.queries = append(w.queries, &ontology.Query{
			Type: ontology.TypeResource, Ontology: "generic",
			Classes: []string{churnClass(c)}, Constraints: rangeSet(churnClass(c), lo, hi),
		})
		// Ground truth from the generator's own geometry: ad j of the class
		// on broker b spans [j*step + b*step/2, +width], ends included.
		var want []string
		for b := 0; b < churnBrokers; b++ {
			for j := 0; j < perClass(c); j++ {
				adLo := j*churnAdStep + b*churnAdStep/2
				if adLo > hi {
					break
				}
				if adLo+churnAdWidth >= lo {
					want = append(want, baseAdName(b, j*churnClasses+c))
				}
			}
		}
		w.wantBase = append(w.wantBase, want)
	}
	return w
}

func (w *churnWorkload) name() string { return wlBrokerChurn }

func (w *churnWorkload) stream(purpose string, client int) *churnStream {
	r := rand.New(rand.NewSource(streamSeed(w.seed, w.name()+"/"+purpose, client)))
	return &churnStream{kinds: newDeck(r, churnShares...), keys: newZipfKeys(r, zipfS, churnQueryKeys)}
}

func (w *churnWorkload) setup(e *env) error {
	ctx := context.Background()
	w.handles = layerHandles{}
	w.clients, w.homes, w.streams = nil, nil, nil

	var brokers []*broker.Broker
	for b := 0; b < churnBrokers; b++ {
		name := fmt.Sprintf("broker-%d", b+1)
		br, err := broker.New(broker.Config{
			Name: name, Address: loopback, Transport: e.transport(name, layerBroker), World: e.world,
			RepositoryShards: churnShards,
		})
		if err != nil {
			return err
		}
		if err := e.start(name, br); err != nil {
			return err
		}
		for _, ad := range w.base[b] {
			if err := br.Repository().Put(ad); err != nil {
				return err
			}
		}
		brokers = append(brokers, br)
	}
	if err := brokers[0].JoinConsortium(ctx, brokers[1].Addr()); err != nil {
		return err
	}
	w.handles.brokers = brokers

	for c := 0; c < e.clients; c++ {
		name := fmt.Sprintf("client-%d", c+1)
		home := brokers[c%churnBrokers].Addr()
		cl, err := agent.New(agent.Config{
			Name: name, Transport: e.transport(name, layerAgent), KnownBrokers: []string{home},
		})
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
		w.homes = append(w.homes, home)
		s := w.stream("load", c)
		for ; s.nextSerial < churnLive; s.nextSerial++ {
			if !w.advertise(c, s.nextSerial) {
				return fmt.Errorf("%s: warm-up advertise %d failed", w.name(), s.nextSerial)
			}
			s.live = append(s.live, s.nextSerial)
		}
		w.streams = append(w.streams, s)
	}
	warm := w.stream("warmup", 0)
	for i := 0; i < churnWarmupOps; i++ {
		if c := i % e.clients; !w.query(c, warm.keys.next()) {
			return fmt.Errorf("%s: warm-up query %d failed", w.name(), i)
		}
	}
	return nil
}

// query asks the client's broker for resources of the key's class and
// range and checks the reply: every returned ad must satisfy the query,
// every base ad that should match must be there, and the search must not
// have been narrowed by an unreachable peer.
func (w *churnWorkload) query(client int, key int32) bool {
	q := w.queries[key]
	br, err := w.clients[client].QueryBrokers(context.Background(), q)
	if err != nil || len(br.Degraded) > 0 {
		return false
	}
	for _, ad := range br.Matches {
		if len(ad.Content) != 1 || len(ad.Content[0].Classes) != 1 ||
			ad.Content[0].Classes[0] != q.Classes[0] || !ad.Content[0].Constraints.Overlaps(q.Constraints) {
			return false
		}
	}
	for _, name := range w.wantBase[key] {
		found := false
		for _, ad := range br.Matches {
			if ad.Name == name {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// advertise sends one synthetic ad to the client's broker the way an
// agent would: an advertise message through Base.Call.
func (w *churnWorkload) advertise(client int, serial int32) bool {
	ad := churnAd(client, serial)
	msg := kqml.New(kqml.Advertise, ad.Name, &kqml.AdvertiseContent{Ad: ad})
	msg.Ontology = kqml.ServiceOntology
	reply, err := w.clients[client].Call(context.Background(), w.homes[client], msg)
	return err == nil && reply.Performative == kqml.Tell
}

func (w *churnWorkload) unadvertise(client int, serial int32) bool {
	ad := churnAd(client, serial)
	msg := kqml.New(kqml.Unadvertise, ad.Name, &kqml.AdvertiseContent{Ad: ad})
	reply, err := w.clients[client].Call(context.Background(), w.homes[client], msg)
	return err == nil && reply.Performative == kqml.Tell
}

func (w *churnWorkload) do(client int, o op) bool {
	switch o.Kind {
	case churnAdvertise:
		return w.advertise(client, o.Arg)
	case churnUnadvertise:
		return w.unadvertise(client, o.Arg)
	default:
		return w.query(client, o.Arg)
	}
}

func (w *churnWorkload) ops() []opFunc {
	out := make([]opFunc, len(w.clients))
	for c := range out {
		out[c] = func() bool { return w.do(c, w.streams[c].next()) }
	}
	return out
}

func (w *churnWorkload) paced(dur time.Duration) phaseResult {
	return runPaced(w.ops(), pacedRate[w.name()], dur)
}

func (w *churnWorkload) saturate(dur time.Duration) phaseResult {
	return runSaturate(w.ops(), dur)
}

func (w *churnWorkload) traced(tr *tracer, dur time.Duration) tracedResult {
	op := w.ops()[0]
	return traceClosedLoop(tr, w.clients[0].Name(), layerAgent, dur, op)
}

func (w *churnWorkload) layers() *layerHandles { return &w.handles }

func (w *churnWorkload) mechanism(d counters, ops int) []string {
	var bad []string
	// Brokers handled every client query once and every forward once, so
	// one forward per client query means forwards are half of all handled.
	handled, fw := d.sum("infosleuth_broker_queries_total"), d.sum("infosleuth_broker_forwards_total")
	if handled == 0 || 2*fw < handled {
		bad = append(bad, fmt.Sprintf("broker.forwards = %.0f over %.0f client queries, want at least one forward per query", fw, handled-fw))
	}
	inval := d.get("infosleuth_broker_match_cache_invalidations_total", "") +
		d.get("infosleuth_broker_shard_cache_invalidations_total", "")
	if inval <= 0 {
		bad = append(bad, "broker.cache_invalidations_per_op = 0: mutations no longer invalidate cached matches")
	}
	return bad
}
