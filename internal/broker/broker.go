package broker

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/monitorsnap"
	"infosleuth/internal/ontology"
	"infosleuth/internal/resilience"
	"infosleuth/internal/stats"
	"infosleuth/internal/telemetry"
	"infosleuth/internal/telemetry/provenance"
	"infosleuth/internal/transport"
)

// PropagationMode selects how a broker propagates inter-broker searches.
type PropagationMode int

// Propagation modes.
const (
	// Flood forwards a search to every known, unvisited peer, at every
	// hop — the paper's implemented behavior.
	Flood PropagationMode = iota
	// OriginOnly forwards only from the broker that first received the
	// query (an approximation of the paper's proposed spanning-tree
	// propagation for fully connected consortia); forwarded copies are
	// answered locally and not propagated further.
	OriginOnly
)

// Config configures a Broker.
type Config struct {
	// Name is the broker's agent name (e.g. "Broker1").
	Name string
	// Address is the transport address to listen on; empty picks an
	// automatic in-process address.
	Address string
	// Transport carries messages; required.
	Transport transport.Transport
	// World supplies the capability hierarchy and domain ontologies.
	World *ontology.World
	// Matcher overrides the matchmaking engine; nil uses DirectMatcher.
	Matcher Matcher
	// DefaultPolicy applies when a requesting agent specifies none.
	// A zero value means ontology.DefaultPolicy.
	DefaultPolicy ontology.SearchPolicy
	// MaxHopCount caps the hop count a requester may ask for
	// (Section 4.3: "it can be overridden by the broker's max hop
	// count"). Zero means 4.
	MaxHopCount int
	// Specializations, when non-empty, lists the ontologies this broker
	// accepts advertisements for; others are forwarded to an interested
	// peer or rejected (Section 3.2, "Brokers may specialize").
	Specializations []string
	// SpecializationClasses, when non-empty, narrows the specialization
	// to specific classes of those ontologies (the Experiment 6 layout:
	// all the resources associated with a given query stream kept at a
	// single broker).
	SpecializationClasses []string
	// Community names the agent community for the Figure 13 extensions.
	Community string
	// Consortia lists consortium names for the Figure 13 extensions.
	Consortia []string
	// Propagation selects the inter-broker propagation mode.
	Propagation PropagationMode
	// PeerPruning uses peers' advertised specializations to skip peers
	// that cannot hold matching agents (Section 4.1: a broker "can
	// reason over the other brokers' capabilities and eliminate brokers
	// that definitely should not be contacted").
	PeerPruning bool
	// SyntheticCostPerAd adds an artificial reasoning delay per stored
	// advertisement on every match, reproducing the paper's
	// reasoning-time model (1 s per MB of advertisements) at laptop
	// scale for the live experiments.
	SyntheticCostPerAd time.Duration
	// DisableMatchCache turns off the generation-invalidated match
	// cache, so every query re-runs the matching engine: the original
	// LDL broker's behavior, part of community.PaperFaithful. It also
	// means "grant no located sets": the broker registers no holder and
	// grants no reply, so every query an agent asks reaches it.
	DisableMatchCache bool
	// RepositoryShards is ignored: the repository is one flat,
	// indexed map.
	//
	// Deprecated: the sharded repository was deleted when it lost to
	// the flat one at every size. The field is kept only because
	// benchmark/ sets it.
	RepositoryShards int
	// CallTimeout bounds each outgoing call; zero means 10 s.
	CallTimeout time.Duration
	// CallPolicy adds retries, backoff, and per-peer circuit breakers to
	// the broker's outgoing calls (inter-broker forwards, recruit
	// deliveries, liveness pings). Forwarding also skips peers whose
	// circuit is open, recording them in BrokerReply.Degraded. Nil keeps
	// every call single-shot.
	CallPolicy *resilience.Policy
}

// Stats counts broker activity; all fields are updated atomically.
type Stats struct {
	QueriesServed   atomic.Int64
	LocalMatches    atomic.Int64
	InterBrokerSent atomic.Int64
	AdsAccepted     atomic.Int64
	AdsRejected     atomic.Int64
	AdsForwarded    atomic.Int64
	PingsHandled    atomic.Int64
	AgentsDropped   atomic.Int64
}

// peer is another broker this broker knows about.
type peer struct {
	name string
	addr string
	ad   *ontology.Advertisement
}

// Broker is an InfoSleuth broker agent.
type Broker struct {
	cfg     Config
	repo    *Repository
	matcher Matcher
	// matcherName labels the match-duration metric ("direct", "datalog").
	matcherName string
	// callFn is the transport call wrapped by the call policy (or the
	// bare transport call when no policy is configured).
	callFn resilience.CallFunc

	// lmu guards listener: Start/Stop run on the owner's goroutine while
	// handlers read the bound address concurrently.
	lmu      sync.Mutex
	listener transport.Listener

	mu    sync.RWMutex
	peers map[string]peer // by lower-cased name

	// costMu serializes the synthetic reasoning delay (one query at a
	// time, like the original LDL engine).
	costMu sync.Mutex

	// located holds the located-set holders while the broker runs with
	// its match cache on; nil otherwise (see located.go).
	located atomic.Pointer[holders]

	// Stats is the broker's activity counters.
	Stats Stats
}

// New creates a broker; call Start to serve.
func New(cfg Config) (*Broker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("broker: config missing Name")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("broker: config missing Transport")
	}
	if cfg.World == nil {
		cfg.World = ontology.NewWorld()
	}
	if cfg.MaxHopCount == 0 {
		cfg.MaxHopCount = 4
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if (cfg.DefaultPolicy == ontology.SearchPolicy{}) {
		cfg.DefaultPolicy = ontology.DefaultPolicy
	}
	b := &Broker{
		cfg:   cfg,
		repo:  NewRepository(),
		peers: make(map[string]peer),
	}
	b.matcher = cfg.Matcher
	if b.matcher == nil {
		b.matcher = &DirectMatcher{World: cfg.World}
	}
	if !cfg.DisableMatchCache {
		b.matcher = NewCachedMatcher(b.matcher, DefaultMatchCacheCapacity)
	}
	b.matcherName = matcherLabel(b.matcher)
	b.callFn = cfg.CallPolicy.WrapCall(cfg.Transport.Call)
	b.repo.changed = b.publishChange
	return b, nil
}

// Start binds the broker to its transport address.
func (b *Broker) Start() error {
	b.lmu.Lock()
	defer b.lmu.Unlock()
	if b.listener != nil {
		return fmt.Errorf("broker %s: already started", b.cfg.Name)
	}
	l, err := b.cfg.Transport.Listen(b.cfg.Address, b.Handle)
	if err != nil {
		return fmt.Errorf("broker %s: %w", b.cfg.Name, err)
	}
	b.listener = l
	if !b.cfg.DisableMatchCache {
		b.located.Store(newHolders())
	}
	return nil
}

// Stop unbinds the broker. Its state (repository, peers) is retained so a
// restarted broker still knows its agents — matching the simulator's
// repair model. Its located-set holders are forgotten: their sets expire
// with their lease (DESIGN.md §14).
func (b *Broker) Stop() error {
	b.lmu.Lock()
	l := b.listener
	b.listener = nil
	b.lmu.Unlock()
	if h := b.located.Swap(nil); h != nil {
		h.close()
	}
	if l == nil {
		return nil
	}
	return l.Close()
}

// Name returns the broker's agent name.
func (b *Broker) Name() string { return b.cfg.Name }

// Addr returns the bound transport address ("" before Start).
func (b *Broker) Addr() string {
	b.lmu.Lock()
	defer b.lmu.Unlock()
	if b.listener == nil {
		return ""
	}
	return b.listener.Addr()
}

// Repository exposes the broker's advertisement repository.
func (b *Broker) Repository() *Repository { return b.repo }

// Advertisement returns the broker's self-description with the Figure 13
// multibroker extensions.
func (b *Broker) Advertisement() *ontology.Advertisement {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return &ontology.Advertisement{
		Name:             b.cfg.Name,
		Address:          b.Addr(),
		Type:             ontology.TypeBroker,
		CommLanguages:    []string{ontology.LangKQML},
		ContentLanguages: []string{ontology.LangLDL},
		Conversations:    []string{ontology.ConvAskAll, ontology.ConvAdvertise},
		Capabilities:     []string{ontology.CapBrokering},
		Broker: &ontology.BrokerInfo{
			Community:             b.cfg.Community,
			Consortia:             append([]string(nil), b.cfg.Consortia...),
			AgentTypes:            b.repo.agentTypes(),
			Specializations:       append([]string(nil), b.cfg.Specializations...),
			SpecializationClasses: append([]string(nil), b.cfg.SpecializationClasses...),
			ConversationTypes:     []string{"delegation", "forwarding"},
		},
	}
}

// Peers returns the names of known peer brokers, sorted.
func (b *Broker) Peers() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.peers))
	for _, p := range b.peers {
		out = append(out, p.name)
	}
	sort.Strings(out)
	return out
}

// JoinConsortium advertises this broker to the brokers at the given
// addresses and records them as peers; each accepting broker replies with
// its own advertisement, creating the bidirectional link of Figure 11.
func (b *Broker) JoinConsortium(ctx context.Context, addrs ...string) error {
	self := b.Advertisement()
	for _, addr := range addrs {
		if addr == b.Addr() {
			continue
		}
		msg := kqml.New(kqml.Advertise, b.cfg.Name, &kqml.AdvertiseContent{Ad: self})
		msg.Ontology = kqml.ServiceOntology
		reply, err := b.call(ctx, addr, msg)
		if err != nil {
			return fmt.Errorf("broker %s: advertising to %s: %w", b.cfg.Name, addr, err)
		}
		if reply.Performative != kqml.Tell {
			return fmt.Errorf("broker %s: peer at %s rejected advertisement: %s", b.cfg.Name, addr, kqml.ReasonOf(reply))
		}
		var ac kqml.AdvertiseContent
		if err := reply.DecodeContent(&ac); err == nil && ac.Ad != nil && ac.Ad.Type == ontology.TypeBroker {
			b.addPeer(ac.Ad)
		}
	}
	b.flushHolders()
	return nil
}

func (b *Broker) addPeer(ad *ontology.Advertisement) {
	if adKey(ad.Name) == adKey(b.cfg.Name) {
		return
	}
	b.mu.Lock()
	b.peers[adKey(ad.Name)] = peer{name: ad.Name, addr: ad.Address, ad: ad.Clone()}
	b.mu.Unlock()
	// Peer brokers also live in the repository so that queries for
	// brokers are answerable.
	_ = b.repo.Put(ad)
	b.recordRepoSize()
}

func (b *Broker) removePeer(name string) {
	b.mu.Lock()
	delete(b.peers, adKey(name))
	b.mu.Unlock()
	b.repo.Remove(name)
	b.recordRepoSize()
}

func (b *Broker) call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	cctx, cancel := context.WithTimeout(ctx, b.cfg.CallTimeout)
	defer cancel()
	return b.callFn(cctx, addr, msg)
}

// Handle processes one incoming message; it is the broker's transport
// handler and is exported for in-process wiring and tests.
func (b *Broker) Handle(msg *kqml.Message) *kqml.Message {
	switch msg.Performative {
	case kqml.Advertise:
		return b.handleAdvertise(msg)
	case kqml.Unadvertise:
		return b.handleUnadvertise(msg)
	case kqml.AskAll, kqml.AskOne:
		if msg.Ontology == kqml.MonitorOntology {
			return b.handleMonitorSnapshot(msg)
		}
		return b.handleQuery(msg)
	case kqml.Recruit:
		return b.handleRecruit(msg)
	case kqml.Ping:
		return b.handlePing(msg)
	default:
		return b.sorry(msg, fmt.Sprintf("%s %q", kqml.SorryReasonUnsupportedPerformative, msg.Performative))
	}
}

// handleRecruit implements KQML's recruit: find the best provider for the
// query, deliver the embedded message to it, and relay its reply — the
// requester never learns the provider list, only the answer.
func (b *Broker) handleRecruit(msg *kqml.Message) *kqml.Message {
	var rc kqml.RecruitContent
	if err := msg.DecodeContent(&rc); err != nil || rc.Query == nil || rc.Embedded == nil {
		return b.sorry(msg, kqml.SorryReasonMalformedRecruit)
	}
	q := rc.Query.Clone()
	q.Limit = 1
	reply, err := b.Search(context.Background(), &kqml.BrokerQuery{Query: q})
	if err != nil {
		mRecruits.With("search_error").Inc()
		return b.sorry(msg, err.Error())
	}
	if len(reply.Matches) == 0 {
		mRecruits.With("no_match").Inc()
		return b.sorry(msg, kqml.SorryReasonNoProvider)
	}
	target := reply.Matches[0]
	fwd := *rc.Embedded
	fwd.Receiver = target.Name
	agentReply, err := b.call(context.Background(), target.Address, &fwd)
	if err != nil {
		mRecruits.With("delivery_failed").Inc()
		return b.sorry(msg, fmt.Sprintf("recruited %s but delivery failed: %v", target.Name, err))
	}
	mRecruits.With("ok").Inc()
	return b.reply(msg, kqml.Tell, &kqml.RecruitReply{Agent: target.Name, Reply: agentReply})
}

func (b *Broker) reply(msg *kqml.Message, p kqml.Performative, content any) *kqml.Message {
	out := kqml.New(p, b.cfg.Name, content)
	out.Receiver = msg.Sender
	out.InReplyTo = msg.ReplyWith
	return out
}

func (b *Broker) sorry(msg *kqml.Message, reason string) *kqml.Message {
	return b.reply(msg, kqml.Sorry, &kqml.SorryContent{Reason: reason})
}

func (b *Broker) handleAdvertise(msg *kqml.Message) *kqml.Message {
	var ac kqml.AdvertiseContent
	if err := msg.DecodeContent(&ac); err != nil || ac.Ad == nil {
		b.Stats.AdsRejected.Add(1)
		return b.sorry(msg, kqml.SorryReasonMalformedAdvertisement)
	}
	ad := ac.Ad
	if err := ad.Validate(); err != nil {
		b.Stats.AdsRejected.Add(1)
		return b.sorry(msg, err.Error())
	}
	if ad.Type == ontology.TypeBroker {
		b.addPeer(ad)
		b.Stats.AdsAccepted.Add(1)
		b.flushHolders()
		return b.reply(msg, kqml.Tell, &kqml.AdvertiseContent{Ad: b.Advertisement()})
	}
	if !b.accepts(ad) {
		// A specialized broker forwards an out-of-scope advertisement
		// to an interested peer before rejecting it (Section 4.1).
		if accepted := b.forwardAdvertisement(ad); accepted != "" {
			b.Stats.AdsForwarded.Add(1)
			return b.sorry(msg, fmt.Sprintf("%s; accepted by %s", kqml.SorryReasonOutsideSpecialization, accepted))
		}
		b.Stats.AdsRejected.Add(1)
		return b.sorry(msg, kqml.SorryReasonOutsideSpecialization+"; no interested peer")
	}
	// The ad was decoded from this frame and nothing else holds it.
	if err := b.repo.own(ad); err != nil {
		b.Stats.AdsRejected.Add(1)
		return b.sorry(msg, err.Error())
	}
	b.Stats.AdsAccepted.Add(1)
	b.recordRepoSize()
	b.flushHolders()
	return b.reply(msg, kqml.Tell, &kqml.AdvertiseContent{Ad: b.Advertisement()})
}

// accepts implements the broker's objective: a general-purpose broker
// accepts everything; a specialized one accepts only agents whose content
// overlaps its chosen ontologies — and, when the specialization is
// class-narrowed, its chosen classes (agents with no content, such as
// query agents, are always accepted — someone must broker them).
func (b *Broker) accepts(ad *ontology.Advertisement) bool {
	if (len(b.cfg.Specializations) == 0 && len(b.cfg.SpecializationClasses) == 0) || len(ad.Content) == 0 {
		return true
	}
	for _, f := range ad.Content {
		ontOK := len(b.cfg.Specializations) == 0
		for _, s := range b.cfg.Specializations {
			if strings.EqualFold(f.Ontology, s) {
				ontOK = true
				break
			}
		}
		if !ontOK {
			continue
		}
		if len(b.cfg.SpecializationClasses) == 0 {
			return true
		}
		for _, c := range f.Classes {
			for _, sc := range b.cfg.SpecializationClasses {
				if strings.EqualFold(c, sc) {
					return true
				}
			}
		}
	}
	return false
}

// forwardAdvertisement offers an out-of-scope advertisement to peers whose
// advertised specializations cover it; it returns the accepting broker's
// name, or "".
func (b *Broker) forwardAdvertisement(ad *ontology.Advertisement) string {
	b.mu.RLock()
	peers := make([]peer, 0, len(b.peers))
	for _, p := range b.peers {
		peers = append(peers, p)
	}
	b.mu.RUnlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].name < peers[j].name })
	for _, p := range peers {
		if p.ad == nil || p.ad.Broker == nil {
			continue
		}
		if !brokerCovers(p.ad.Broker, ad) {
			continue
		}
		msg := kqml.New(kqml.Advertise, b.cfg.Name, &kqml.AdvertiseContent{Ad: ad})
		msg.Ontology = kqml.ServiceOntology
		reply, err := b.call(context.Background(), p.addr, msg)
		if err == nil && reply.Performative == kqml.Tell {
			return p.name
		}
	}
	return ""
}

// brokerCovers reports whether a peer broker's advertised specializations
// admit the advertisement.
func brokerCovers(info *ontology.BrokerInfo, ad *ontology.Advertisement) bool {
	if len(info.Specializations) == 0 && len(info.SpecializationClasses) == 0 {
		return true // general-purpose
	}
	for _, f := range ad.Content {
		ontOK := len(info.Specializations) == 0
		for _, s := range info.Specializations {
			if strings.EqualFold(f.Ontology, s) {
				ontOK = true
				break
			}
		}
		if !ontOK {
			continue
		}
		if len(info.SpecializationClasses) == 0 {
			return true
		}
		for _, c := range f.Classes {
			for _, sc := range info.SpecializationClasses {
				if strings.EqualFold(c, sc) {
					return true
				}
			}
		}
	}
	return false
}

func (b *Broker) handleUnadvertise(msg *kqml.Message) *kqml.Message {
	var ac kqml.AdvertiseContent
	name := msg.Sender
	if err := msg.DecodeContent(&ac); err == nil && ac.Ad != nil {
		name = ac.Ad.Name
	}
	b.mu.RLock()
	_, isPeer := b.peers[adKey(name)]
	b.mu.RUnlock()
	if isPeer {
		b.removePeer(name)
		b.flushHolders()
		return b.reply(msg, kqml.Tell, &kqml.SorryContent{Reason: kqml.SorryReasonUnadvertised})
	}
	if !b.repo.Remove(name) {
		return b.sorry(msg, kqml.SorryReasonNotAdvertised)
	}
	b.recordRepoSize()
	b.flushHolders()
	return b.reply(msg, kqml.Tell, &kqml.SorryContent{Reason: kqml.SorryReasonUnadvertised})
}

// handleMonitorSnapshot answers the monitor-snapshot conversation the way
// agent.Base does for non-broker agents, adding the broker-only field:
// the advertisement repository's size.
func (b *Broker) handleMonitorSnapshot(msg *kqml.Message) *kqml.Message {
	snap := monitorsnap.Build(b.cfg.Name, b.cfg.CallPolicy)
	snap.AgentType = string(ontology.TypeBroker)
	snap.RepoSize = b.repo.LenNonBroker()
	out := b.reply(msg, kqml.Tell, snap)
	out.Ontology = kqml.MonitorOntology
	return out
}

func (b *Broker) handlePing(msg *kqml.Message) *kqml.Message {
	b.Stats.PingsHandled.Add(1)
	mPings.Inc()
	var pc kqml.PingContent
	if err := msg.DecodeContent(&pc); err != nil {
		return b.sorry(msg, kqml.SorryReasonMalformedPing)
	}
	return b.reply(msg, kqml.Tell, &kqml.PingReply{Known: b.repo.Contains(pc.AgentName)})
}

func (b *Broker) handleQuery(msg *kqml.Message) *kqml.Message {
	var bq kqml.BrokerQuery
	if err := msg.DecodeContent(&bq); err != nil || bq.Query == nil {
		return b.sorry(msg, kqml.SorryReasonMalformedBrokerQuery)
	}
	b.Stats.QueriesServed.Add(1)
	mQueries.With(b.cfg.Name).Inc()
	start := time.Now()
	// A traced query gathers the decisions made on its behalf (match
	// accept/reject, forwarding) and the entries its peers returned, so
	// they ride the reply envelope's trace back toward the originator.
	ctx, col := provenance.Receive(msg)
	reply, err := b.Search(ctx, &bq)
	var out *kqml.Message
	if err != nil {
		out = b.sorry(msg, err.Error())
		slog.Debug("broker query failed", "broker", b.cfg.Name, "err", err, "trace_id", msg.TraceID)
	} else {
		// An empty result is still a successful reply; sorry is reserved
		// for processing failures. The paper's broker replies with "no
		// matches", which agents use in broker pings.
		out = b.reply(msg, kqml.Tell, reply)
	}
	// The reply carries this broker's decisions, then the peers' entries
	// (their spans and decisions), then this broker's own span, so the
	// originator reads the spans innermost-hop-first with its entry broker
	// last; the collector keeps them inside the envelope caps.
	out.Trace = kqml.AppendSpans(nil, col.Entries()...)
	span := kqml.TraceSpan{
		Agent:          b.cfg.Name,
		Op:             kqml.OpBrokerSearch,
		Hop:            bq.Depth,
		Start:          start.UnixNano(),
		DurationMicros: time.Since(start).Microseconds(),
	}
	if err != nil {
		span.Err = err.Error()
	}
	kqml.PropagateTrace(msg, out, span)
	telemetry.RecordSpan(msg.TraceID, span)
	return out
}

// Search performs matchmaking for a broker query: the local repository
// first, then — policy permitting — the inter-broker search of Section 4.3.
// The advertisements in the reply are shared immutable snapshots (see
// Matcher.Match): in-process callers must treat them as read-only.
// A traced context's ID rides every forward, and the peers' returned
// trace entries go to its collector after this broker's own decisions.
func (b *Broker) Search(ctx context.Context, bq *kqml.BrokerQuery) (*kqml.BrokerReply, error) {
	q := bq.Query
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if bq.Forwarded {
		mForwardHops.Observe(float64(bq.Depth))
	}

	hops := bq.HopsLeft
	follow := q.Policy.Follow
	if !bq.Forwarded {
		policy := q.Policy
		if (policy == ontology.SearchPolicy{}) {
			policy = b.cfg.DefaultPolicy
			// The paper's defaults: a request for a single agent
			// follows "until you find a single match"; otherwise all
			// repositories.
			if q.Limit == 1 {
				policy.Follow = ontology.FollowUntilMatch
			}
		}
		if policy.HopCount == 0 {
			policy.HopCount = b.cfg.DefaultPolicy.HopCount
		}
		hops = policy.HopCount
		if hops > b.cfg.MaxHopCount {
			hops = b.cfg.MaxHopCount
		}
		follow = policy.Follow
	}

	// A holder is registered before the match, so that a change landing
	// after the match still reaches it. An until-match search without a
	// limit stops at the first broker with any match, so its reply
	// cannot be narrowed to a constrained query, and is not granted.
	var holder string
	if h := b.located.Load(); h != nil && bq.Holder != "" && (follow != ontology.FollowUntilMatch || q.Limit > 0) {
		holder = bq.Holder
		b.register(h, holder, q)
	}
	granted := holder != ""

	// em is nil unless this search is traced and someone is listening
	// (flight recorder or reply collector); every provenance step below
	// hides behind that nil check.
	em := provenance.For(ctx)
	var cacheHit bool
	var cacheGen uint64
	if em != nil {
		cacheGen = b.repo.Generation()
		if cm, ok := b.matcher.(*CachedMatcher); ok {
			cacheHit, cacheGen = cm.Peek(b.repo, q)
		}
	}
	local, err := b.matchLocal(q)
	if err != nil {
		return nil, err
	}
	b.Stats.LocalMatches.Add(int64(len(local)))
	if em != nil {
		b.emitMatchProvenance(em, q, cacheHit, cacheGen)
	}

	reply := &kqml.BrokerReply{Matches: local, Brokers: []string{b.cfg.Name}}
	var peerSpans []kqml.TraceSpan
	done := func() (*kqml.BrokerReply, error) {
		reply.Matches = mergeMatches(b.cfg.World, q, reply.Matches)
		if q.Limit > 0 && len(reply.Matches) > q.Limit {
			reply.Matches = reply.Matches[:q.Limit]
		}
		reply.Degraded = dedupSorted(reply.Degraded)
		reply.Granted = granted && len(reply.Degraded) == 0
		provenance.CollectorFrom(ctx).Add(peerSpans...)
		return reply, nil
	}

	if follow == ontology.FollowLocal || hops <= 0 {
		return done()
	}
	target := q.Limit
	if follow == ontology.FollowUntilMatch {
		if target == 0 {
			target = 1
		}
		if len(reply.Matches) >= target {
			return done()
		}
	}
	if b.cfg.Propagation == OriginOnly && bq.Forwarded {
		return done()
	}

	// Select unvisited (and unpruned) peers.
	visited := make(map[string]bool, len(bq.Visited)+1)
	for _, v := range bq.Visited {
		visited[adKey(v)] = true
	}
	visited[adKey(b.cfg.Name)] = true
	b.mu.RLock()
	var targets []peer
	for _, p := range b.peers {
		if visited[adKey(p.name)] {
			continue
		}
		if b.cfg.PeerPruning && p.ad != nil && p.ad.Broker != nil && prunedPeer(p.ad.Broker, q) {
			b.forwardSkip(em, p.name, "pruned: specialization cannot match")
			continue
		}
		if b.cfg.CallPolicy.BreakerOpen(p.addr) {
			// The peer's circuit is open: skip it without spending a
			// call, but tell the requester the search was narrowed.
			reply.Degraded = append(reply.Degraded, p.name)
			b.forwardSkip(em, p.name, "breaker open")
			continue
		}
		targets = append(targets, p)
	}
	b.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	// The forwarded visited list covers every broker contacted in this
	// round, preventing re-forwarding loops (Section 4.3).
	fwdVisited := append([]string(nil), bq.Visited...)
	fwdVisited = append(fwdVisited, b.cfg.Name)
	for _, p := range targets {
		fwdVisited = append(fwdVisited, p.name)
	}

	if follow == ontology.FollowUntilMatch {
		// Sequential: stop as soon as the target is met.
		for _, p := range targets {
			br, spans, err := b.forwardQuery(ctx, p, q, hops-1, bq.Depth, fwdVisited, holder)
			if err != nil {
				reply.Degraded = append(reply.Degraded, p.name)
				b.forwardOutcome(em, p.name, 0, err)
				continue
			}
			b.forwardOutcome(em, p.name, len(br.Matches), nil)
			granted = granted && br.Granted
			reply.Matches = mergeMatches(b.cfg.World, q, reply.Matches, br.Matches)
			reply.Brokers = append(reply.Brokers, br.Brokers...)
			reply.Degraded = append(reply.Degraded, br.Degraded...)
			peerSpans = append(peerSpans, spans...)
			if len(reply.Matches) >= target {
				break
			}
		}
		return done()
	}

	// FollowAll: fan out concurrently (the paper: "forward the request
	// simultaneously to all the other brokers that it knows about").
	type result struct {
		matches  []*ontology.Advertisement
		brokers  []string
		degraded []string
		spans    []kqml.TraceSpan
		granted  bool
	}
	results := make(chan result, len(targets))
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func(p peer) {
			defer wg.Done()
			br, spans, err := b.forwardQuery(ctx, p, q, hops-1, bq.Depth, fwdVisited, holder)
			if err != nil {
				b.forwardOutcome(em, p.name, 0, err)
				results <- result{degraded: []string{p.name}}
				return
			}
			b.forwardOutcome(em, p.name, len(br.Matches), nil)
			results <- result{matches: br.Matches, brokers: br.Brokers, degraded: br.Degraded, spans: spans, granted: br.Granted}
		}(p)
	}
	wg.Wait()
	close(results)
	for r := range results {
		reply.Matches = mergeMatches(b.cfg.World, q, reply.Matches, r.matches)
		reply.Brokers = append(reply.Brokers, r.brokers...)
		reply.Degraded = append(reply.Degraded, r.degraded...)
		peerSpans = append(peerSpans, r.spans...)
		granted = granted && r.granted
	}
	return done()
}

// dedupSorted sorts and deduplicates a degraded-peer list in place, so the
// requester sees a stable record regardless of forwarding order or how many
// paths reported the same peer.
func dedupSorted(in []string) []string {
	if len(in) < 2 {
		return in
	}
	sort.Strings(in)
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

func specializesIn(info *ontology.BrokerInfo, ont string) bool {
	for _, s := range info.Specializations {
		if strings.EqualFold(s, ont) {
			return true
		}
	}
	return false
}

// prunedPeer decides whether the peer's advertised specializations rule it
// out for this query — the Section 4.1 optimization of "eliminating
// brokers that definitely should not be contacted".
func prunedPeer(info *ontology.BrokerInfo, q *ontology.Query) bool {
	if q.Ontology != "" && len(info.Specializations) > 0 && !specializesIn(info, q.Ontology) {
		return true
	}
	if len(q.Classes) > 0 && len(info.SpecializationClasses) > 0 {
		for _, c := range q.Classes {
			for _, sc := range info.SpecializationClasses {
				if strings.EqualFold(c, sc) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// forwardQuery asks a peer the query on the search's behalf. A holder the
// search registered rides along, so the peer registers it too and calls it
// back itself.
func (b *Broker) forwardQuery(ctx context.Context, p peer, q *ontology.Query, hopsLeft, depth int, visited []string, holder string) (*kqml.BrokerReply, []kqml.TraceSpan, error) {
	b.Stats.InterBrokerSent.Add(1)
	mForwards.With(b.cfg.Name).Inc()
	msg := kqml.New(kqml.AskAll, b.cfg.Name, &kqml.BrokerQuery{
		Query:     q,
		HopsLeft:  hopsLeft,
		Visited:   visited,
		Forwarded: true,
		Depth:     depth + 1,
		Holder:    holder,
	})
	msg.Ontology = kqml.ServiceOntology
	start := time.Now()
	reply, err := b.call(ctx, p.addr, msg)
	stats.Queries.Observe(p.name, strings.Join(q.Classes, ","), time.Since(start), 0, err != nil)
	if err != nil {
		mForwardErrors.With(b.cfg.Name).Inc()
		return nil, nil, err
	}
	if reply.Performative != kqml.Tell {
		mForwardErrors.With(b.cfg.Name).Inc()
		return nil, nil, fmt.Errorf("broker %s: peer %s: %s", b.cfg.Name, p.name, kqml.ReasonOf(reply))
	}
	var br kqml.BrokerReply
	if err := reply.DecodeContent(&br); err != nil {
		return nil, nil, err
	}
	// The peer's trace carries its subtree's spans and decisions; they
	// propagate transitively on this broker's reply (the transport
	// already mirrored them into the local recorder).
	return &br, reply.Trace, nil
}

// matchLocal runs the matcher over the local repository, charging the
// synthetic per-advertisement reasoning cost first. The cost is serialized
// through a mutex: the original broker's LDL engine processed one query at
// a time, which is what makes a loaded single broker queue up (the
// Experiment 4-5 regime of Table 3).
func (b *Broker) matchLocal(q *ontology.Query) ([]*ontology.Advertisement, error) {
	if c := b.cfg.SyntheticCostPerAd; c > 0 {
		b.costMu.Lock()
		time.Sleep(time.Duration(b.repo.LenNonBroker()) * c)
		b.costMu.Unlock()
	}
	start := time.Now()
	matches, err := b.matcher.Match(b.repo, q)
	mMatchSeconds.With(b.matcherName).Observe(time.Since(start).Seconds())
	return matches, err
}

// PingAgents checks the liveness of every advertised non-broker agent and
// removes those that fail to respond (Section 2.2: "the broker
// periodically pings each of the agents that have advertised to it, to
// discover any agents that have failed"). It returns the number removed.
func (b *Broker) PingAgents(ctx context.Context) int {
	dropped := 0
	for _, ad := range b.repo.All() {
		if ad.Type == ontology.TypeBroker {
			continue
		}
		msg := kqml.New(kqml.Ping, b.cfg.Name, &kqml.PingContent{AgentName: ad.Name})
		msg.Receiver = ad.Name
		if _, err := b.call(ctx, ad.Address, msg); err != nil {
			b.repo.Remove(ad.Name)
			b.Stats.AgentsDropped.Add(1)
			mAgentsDropped.Inc()
			dropped++
			slog.Info("dropped unresponsive agent", "broker", b.cfg.Name, "agent", ad.Name, "err", err)
		}
	}
	if dropped > 0 {
		b.recordRepoSize()
		b.flushHolders()
	}
	return dropped
}
