// Package agent provides the base runtime shared by all non-broker
// InfoSleuth agents: transport binding, the redundant-advertising state
// machine of Section 4.2.1 (known-broker-list / connected-broker-list), the
// periodic broker ping of Section 4.2.2, dormancy when no broker is
// reachable, and broker querying.
package agent

import (
	"context"
	"fmt"
	"sync"
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

// Caller issues one outgoing request/reply exchange. It is the seam the
// base agent makes its calls through: the default implementation is the
// configured transport, a call policy (see WithCallPolicy) layers
// retry/backoff and circuit breaking over it, and tests can substitute a
// fake outright (WithCaller) instead of hand-rolling a transport.
type Caller interface {
	Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error)
}

// CallerFunc adapts a function to the Caller interface.
type CallerFunc func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error)

// Call implements Caller.
func (f CallerFunc) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	return f(ctx, addr, msg)
}

// Option customizes a base agent beyond its Config; pass options to New.
// All Config fields keep working unchanged — options only layer on top.
type Option func(*Base)

// WithTransport overrides the transport the agent binds and calls through
// (equivalent to setting Config.Transport, but composable at call sites
// that only hold options).
func WithTransport(t transport.Transport) Option {
	return func(a *Base) {
		if t != nil {
			a.cfg.Transport = t
		}
	}
}

// WithCallPolicy installs a resilience policy on every outgoing call the
// agent makes — advertising, heartbeat pings, broker queries, and derived
// agents' calls all retry with backoff and respect per-peer circuit
// breakers. A nil policy is a no-op (single attempt, the default).
func WithCallPolicy(p *resilience.Policy) Option {
	return func(a *Base) { a.policy = p }
}

// WithCaller replaces the agent's outgoing-call path entirely; the call
// policy (if any) still wraps it. Intended for tests and fakes.
func WithCaller(c Caller) Option {
	return func(a *Base) {
		if c != nil {
			a.caller = c
		}
	}
}

// Config configures a base agent.
type Config struct {
	// Name is the agent's name (e.g. "DB1 resource agent").
	Name string
	// Address is the transport address to listen on; empty picks an
	// automatic in-process address.
	Address string
	// Transport carries messages; required.
	Transport transport.Transport
	// KnownBrokers seeds the known-broker-list with broker addresses
	// ("each non-broker agent is configured with one or more preferred
	// brokers to connect to on startup").
	KnownBrokers []string
	// Redundancy is how many brokers the agent advertises to
	// (Section 4.2.1's configured number of redundant advertisements).
	// Zero means 1.
	Redundancy int
	// CallTimeout bounds each outgoing call; zero means 10 s.
	CallTimeout time.Duration
	// RandomizeBrokerChoice makes QueryBrokers pick a uniformly random
	// connected broker first instead of the first in list order — the
	// paper's query agent "uniformly randomly chooses a broker on each
	// query issued", which spreads load in multibroker communities.
	RandomizeBrokerChoice bool
	// RandomSeed seeds the broker choice; 0 derives a seed from the
	// agent name.
	RandomSeed int64
}

// Base is the embeddable agent runtime. Owners set Handler (and usually
// AdBuilder) before Start.
type Base struct {
	cfg Config

	// lmu guards listener: Start/Stop run on the owner's goroutine while
	// the heartbeat and handlers read the bound address concurrently.
	lmu      sync.Mutex
	listener transport.Listener

	// Handler processes application messages (everything but ping,
	// which Base answers itself). Nil handlers make the agent reply
	// sorry.
	Handler transport.Handler
	// AdBuilder produces the agent's advertisement; it is called after
	// the listener is bound so the advertised address is real.
	AdBuilder func(addr string) *ontology.Advertisement

	mu        sync.Mutex
	known     []string        // known-broker-list (addresses, in order)
	connected map[string]bool // connected-broker-list
	dormant   bool
	rng       *stats.Source

	// caller is the outgoing-call seam (defaults to the transport);
	// policy, when set, wraps it with retry/backoff and circuit breakers.
	// Both are fixed at New and read-only afterwards.
	caller Caller
	policy *resilience.Policy
	callFn resilience.CallFunc

	// located holds the broker replies this agent was granted (see
	// located.go); only an agent with a listener is granted any.
	located locatedSets
}

// New creates a base agent; call Start to serve, then Advertise. Options
// layer call policies, alternate transports, or fake callers over the
// Config without widening it.
func New(cfg Config, opts ...Option) (*Base, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("agent: config missing Name")
	}
	b := &Base{
		cfg:       cfg,
		connected: make(map[string]bool),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(b)
		}
	}
	if b.cfg.Transport == nil && b.caller == nil {
		return nil, fmt.Errorf("agent: config missing Transport")
	}
	if b.cfg.Redundancy <= 0 {
		b.cfg.Redundancy = 1
	}
	if b.cfg.CallTimeout == 0 {
		b.cfg.CallTimeout = 10 * time.Second
	}
	b.known = append([]string(nil), b.cfg.KnownBrokers...)
	if b.caller == nil {
		b.caller = b.cfg.Transport
	}
	b.callFn = b.policy.WrapCall(b.caller.Call)
	if b.cfg.RandomizeBrokerChoice {
		seed := b.cfg.RandomSeed
		if seed == 0 {
			for _, r := range b.cfg.Name {
				seed = seed*131 + int64(r)
			}
		}
		b.rng = stats.NewSource(seed)
	}
	return b, nil
}

// Start binds the agent to its transport address.
func (a *Base) Start() error {
	a.lmu.Lock()
	defer a.lmu.Unlock()
	if a.listener != nil {
		return fmt.Errorf("agent %s: already started", a.cfg.Name)
	}
	if a.cfg.Transport == nil {
		return fmt.Errorf("agent %s: no transport to listen on (WithCaller covers outgoing calls only)", a.cfg.Name)
	}
	l, err := a.cfg.Transport.Listen(a.cfg.Address, a.dispatch)
	if err != nil {
		return fmt.Errorf("agent %s: %w", a.cfg.Name, err)
	}
	a.listener = l
	return nil
}

// Stop unbinds the agent without unregistering from brokers (a crash, from
// the brokers' perspective); see Unadvertise for the graceful path.
func (a *Base) Stop() error {
	a.lmu.Lock()
	l := a.listener
	a.listener = nil
	a.lmu.Unlock()
	a.located.reset()
	if l == nil {
		return nil
	}
	return l.Close()
}

// Name returns the agent's name.
func (a *Base) Name() string { return a.cfg.Name }

// Addr returns the bound transport address ("" before Start).
func (a *Base) Addr() string {
	a.lmu.Lock()
	defer a.lmu.Unlock()
	if a.listener == nil {
		return ""
	}
	return a.listener.Addr()
}

// Dormant reports whether the agent gave up on all brokers and is waiting
// for the next polling interval (Section 4.2.2).
func (a *Base) Dormant() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dormant
}

// dispatch times and counts every incoming message by performative, and
// stamps the reply with a trace span when the request carries a trace ID,
// before handing application messages to Handler (pings it answers
// itself).
func (a *Base) dispatch(msg *kqml.Message) *kqml.Message {
	start := time.Now()
	reply := a.dispatchInner(msg)
	d := observeDispatch(string(msg.Performative), start, msg.TraceID)
	if msg.TraceID != "" {
		span := kqml.TraceSpan{
			Agent:          a.cfg.Name,
			Op:             "dispatch." + string(msg.Performative),
			Start:          start.UnixNano(),
			DurationMicros: d.Microseconds(),
		}
		kqml.PropagateTrace(msg, reply, span)
		telemetry.RecordSpan(msg.TraceID, span)
	}
	return reply
}

func (a *Base) dispatchInner(msg *kqml.Message) *kqml.Message {
	if msg.Performative == kqml.Ping {
		reply := kqml.New(kqml.Tell, a.cfg.Name, &kqml.PingReply{Known: true})
		reply.Receiver = msg.Sender
		reply.InReplyTo = msg.ReplyWith
		return reply
	}
	// A broker's update on the service ontology says that a change may
	// alter replies it contributed to: the located sets go, and the next
	// queries ask again.
	if msg.Performative == kqml.Update && msg.Ontology == kqml.ServiceOntology {
		a.located.invalidate(msg.Sender)
		reply := kqml.New(kqml.Tell, a.cfg.Name, &kqml.UpdateAck{})
		reply.Receiver = msg.Sender
		reply.InReplyTo = msg.ReplyWith
		return reply
	}
	// The monitor-snapshot conversation is answered by the base runtime
	// itself, like ping: every agent in the community is observable
	// without its owner writing a handler.
	if (msg.Performative == kqml.AskAll || msg.Performative == kqml.AskOne) && msg.Ontology == kqml.MonitorOntology {
		snap := monitorsnap.Build(a.cfg.Name, a.policy)
		snap.AgentType = string(a.advertisementType())
		snap.Dormant = a.Dormant()
		reply := kqml.New(kqml.Tell, a.cfg.Name, snap)
		reply.Ontology = kqml.MonitorOntology
		reply.Receiver = msg.Sender
		reply.InReplyTo = msg.ReplyWith
		return reply
	}
	if a.Handler != nil {
		return a.Handler(msg)
	}
	reply := kqml.New(kqml.Sorry, a.cfg.Name, &kqml.SorryContent{
		Reason: fmt.Sprintf("agent %s does not handle %s", a.cfg.Name, msg.Performative),
	})
	reply.Receiver = msg.Sender
	return reply
}

// call sends one outgoing message through the agent's caller under the
// configured call timeout. The timeout bounds the whole resilient call —
// with a policy installed, its deadline is sliced across the remaining
// attempts, so retries fit inside the same budget a single-shot call had.
func (a *Base) call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	cctx, cancel := context.WithTimeout(ctx, a.cfg.CallTimeout)
	defer cancel()
	return a.callFn(cctx, addr, msg)
}

// CallPolicy returns the installed resilience policy (nil when none).
func (a *Base) CallPolicy() *resilience.Policy { return a.policy }

// advertisement builds the agent's current advertisement.
func (a *Base) advertisement() *ontology.Advertisement {
	if a.AdBuilder != nil {
		return a.AdBuilder(a.Addr())
	}
	return &ontology.Advertisement{
		Name:          a.cfg.Name,
		Address:       a.Addr(),
		Type:          ontology.TypeUser,
		CommLanguages: []string{ontology.LangKQML},
	}
}

// advertisementType returns the agent type the agent would advertise as.
func (a *Base) advertisementType() ontology.AgentType {
	if ad := a.advertisement(); ad != nil {
		return ad.Type
	}
	return ontology.TypeUser
}

// AddKnownBroker appends a broker address to the known-broker-list ("during
// operation, an agent may also discover more brokers that it deems
// appropriate to advertise to").
func (a *Base) AddKnownBroker(addr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range a.known {
		if k == addr {
			return
		}
	}
	a.known = append(a.known, addr)
}

// KnownBrokers returns the known-broker-list.
func (a *Base) KnownBrokers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.known...)
}

// ConnectedBrokers returns the connected-broker-list in known-list order.
func (a *Base) ConnectedBrokers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for _, k := range a.known {
		if a.connected[k] {
			out = append(out, k)
		}
	}
	return out
}

// Advertise walks the known-broker-list, advertising to brokers not yet on
// the connected-broker-list, until the configured redundancy is reached
// (Section 4.2.1). It returns the number of connected brokers; zero puts
// the agent in the dormant state.
func (a *Base) Advertise(ctx context.Context) (int, error) {
	ad := a.advertisement()
	a.mu.Lock()
	known := append([]string(nil), a.known...)
	a.mu.Unlock()

	var lastErr error
	for _, addr := range known {
		if a.connectedCount() >= a.cfg.Redundancy {
			break
		}
		a.mu.Lock()
		already := a.connected[addr]
		a.mu.Unlock()
		if already {
			continue
		}
		msg := kqml.New(kqml.Advertise, a.cfg.Name, &kqml.AdvertiseContent{Ad: ad})
		msg.Ontology = kqml.ServiceOntology
		reply, err := a.call(ctx, addr, msg)
		if err != nil {
			lastErr = err
			continue
		}
		if reply.Performative != kqml.Tell {
			lastErr = fmt.Errorf("agent %s: broker at %s: %s", a.cfg.Name, addr, kqml.ReasonOf(reply))
			continue
		}
		a.mu.Lock()
		a.connected[addr] = true
		a.mu.Unlock()
	}
	n := a.connectedCount()
	a.mu.Lock()
	a.dormant = n == 0
	a.mu.Unlock()
	if n == 0 && lastErr != nil {
		return 0, lastErr
	}
	return n, nil
}

func (a *Base) connectedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, ok := range a.connected {
		if ok {
			n++
		}
	}
	return n
}

// Unadvertise removes the agent's registration from every connected broker
// ("when an agent goes offline, it first unregisters itself from the
// broker").
func (a *Base) Unadvertise(ctx context.Context) {
	for _, addr := range a.ConnectedBrokers() {
		msg := kqml.New(kqml.Unadvertise, a.cfg.Name, &kqml.AdvertiseContent{Ad: a.advertisement()})
		_, _ = a.call(ctx, addr, msg)
		a.mu.Lock()
		delete(a.connected, addr)
		a.mu.Unlock()
	}
}

// CheckBrokers is one cycle of the Section 4.2.2 "broker ping": each
// connected broker is asked whether it still knows about this agent;
// brokers that are dead or have forgotten the agent leave the
// connected-broker-list, and the agent re-advertises if it has fallen below
// its redundancy target. It returns the connected count after the cycle.
func (a *Base) CheckBrokers(ctx context.Context) int {
	for _, addr := range a.ConnectedBrokers() {
		msg := kqml.New(kqml.Ping, a.cfg.Name, &kqml.PingContent{AgentName: a.cfg.Name})
		reply, err := a.call(ctx, addr, msg)
		drop := false
		if err != nil {
			// Transport failure: the broker has died.
			drop = true
		} else {
			var pr kqml.PingReply
			if derr := reply.DecodeContent(&pr); derr != nil || !pr.Known {
				// The broker is alive but no longer has our
				// advertisement.
				drop = true
			}
		}
		if drop {
			a.mu.Lock()
			delete(a.connected, addr)
			a.mu.Unlock()
			a.located.drop(addr)
		}
	}
	if a.connectedCount() < a.cfg.Redundancy {
		n, _ := a.Advertise(ctx)
		return n
	}
	n := a.connectedCount()
	a.mu.Lock()
	a.dormant = n == 0
	a.mu.Unlock()
	return n
}

// StartHeartbeat runs CheckBrokers on the given interval until the returned
// stop function is called. Stop is synchronous: it cancels the context an
// in-flight CheckBrokers runs under and waits for the heartbeat goroutine
// to exit, so after stop returns no ping can still be mutating the
// connected-broker-list.
func (a *Base) StartHeartbeat(interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				a.CheckBrokers(ctx)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
}

// QueryBrokers sends a service query to the agent's brokers, returning the
// first successful reply. It tries connected brokers in order, then any
// remaining known brokers. When the context carries a trace ID (see
// telemetry.WithTraceID), the query joins that conversation trace.
//
// An agent with a listener answers from its located sets where it can
// (see located.go): a query without constraints from the saved reply to
// it, a Limit 0 FollowAll query from the saved reply to its class-wide
// form. A traced query always asks a broker, as written; when it has no
// constraints its granted reply replaces the saved one.
func (a *Base) QueryBrokers(ctx context.Context, q *ontology.Query) (*kqml.BrokerReply, error) {
	br, _, err := a.queryBrokers(ctx, q)
	return br, err
}

// QueryBrokersTraced is QueryBrokers with conversation tracing: it mints a
// trace ID, carries it on the context, and returns the timing spans
// accumulated across every agent that touched the conversation — one span
// per broker hop in a multibroker search (Section 2.3's conversation, made
// visible).
func (a *Base) QueryBrokersTraced(ctx context.Context, q *ontology.Query) (*kqml.BrokerReply, *kqml.Trace, error) {
	traceID := telemetry.NewTraceID()
	br, spans, err := a.queryBrokers(telemetry.WithTraceID(ctx, traceID), q)
	if err != nil {
		return nil, nil, err
	}
	return br, &kqml.Trace{ID: traceID, Spans: kqml.TimingSpans(spans)}, nil
}

// queryBrokers is QueryBrokers returning the reply's trace entries too,
// under a query.brokers span when the context is traced.
func (a *Base) queryBrokers(ctx context.Context, q *ontology.Query) (_ *kqml.BrokerReply, _ []kqml.TraceSpan, err error) {
	if traceID := telemetry.TraceIDFrom(ctx); traceID != "" {
		defer func(start time.Time) {
			span := kqml.TraceSpan{
				Agent:          a.cfg.Name,
				Op:             telemetry.OpQueryBrokers,
				Start:          start.UnixNano(),
				DurationMicros: time.Since(start).Microseconds(),
			}
			if err != nil {
				span.Err = err.Error()
			}
			telemetry.RecordSpan(traceID, span)
		}(time.Now())
	}
	traced := telemetry.TraceIDFrom(ctx) != ""
	var (
		kq     *ontology.Query
		narrow bool
		key    []byte
	)
	self := a.Addr()
	if self != "" {
		if kq, narrow = locatedKey(q); kq != nil {
			buf := keyBufs.Get().(*[]byte)
			defer keyBufs.Put(buf)
			if *buf, err = kq.AppendJSON((*buf)[:0]); err != nil {
				return nil, nil, err
			}
			key = *buf
			if !traced {
				if br := a.located.answer(key, q, narrow, time.Now()); br != nil {
					mBrokerQueries.With("ok").Inc()
					return br, nil, nil
				}
			}
		}
	}
	tried := make(map[string]bool)
	var lastErr error
	attempt := func(addr string) (*kqml.BrokerReply, []kqml.TraceSpan, error) {
		tried[addr] = true
		// The query goes as written, unless the agent keeps its reply: then
		// it carries the agent's address, and untraced it goes in the form
		// the located set answers.
		ask, holder := q, ""
		sent := time.Now()
		if kq != nil && (!traced || !narrow) && a.located.grants(addr, sent) {
			ask, holder = kq, self
		}
		seq := a.located.epoch()
		msg := kqml.New(kqml.AskAll, a.cfg.Name, &kqml.BrokerQuery{Query: ask, Holder: holder})
		msg.Ontology = kqml.ServiceOntology
		reply, err := a.call(ctx, addr, msg)
		if err != nil {
			a.located.drop(addr)
			return nil, nil, err
		}
		if reply.Performative != kqml.Tell {
			return nil, nil, fmt.Errorf("agent %s: broker at %s: %s", a.cfg.Name, addr, kqml.ReasonOf(reply))
		}
		var br kqml.BrokerReply
		if err := reply.DecodeContent(&br); err != nil {
			return nil, nil, err
		}
		// Fold the broker's decision events (match accept/reject,
		// forwarding) into the requester's collector, if one is active,
		// so a relaying agent propagates them on its own reply.
		provenance.CollectReply(ctx, reply)
		if holder != "" {
			a.located.keep(string(key), addr, &br, sent, seq)
		}
		if ask != q {
			nb := narrowed(br.Matches, br.Brokers, q)
			nb.Degraded = br.Degraded
			return nb, reply.Trace, nil
		}
		return &br, reply.Trace, nil
	}
	connected := a.ConnectedBrokers()
	if a.rng != nil && len(connected) > 1 {
		a.mu.Lock()
		perm := a.rng.Perm(len(connected))
		a.mu.Unlock()
		shuffled := make([]string, len(connected))
		for i, p := range perm {
			shuffled[i] = connected[p]
		}
		connected = shuffled
	}
	for _, addr := range connected {
		br, spans, err := attempt(addr)
		if err == nil {
			mBrokerQueries.With("ok").Inc()
			return br, spans, nil
		}
		lastErr = err
	}
	for _, addr := range a.KnownBrokers() {
		if tried[addr] {
			continue
		}
		br, spans, err := attempt(addr)
		if err == nil {
			mBrokerQueries.With("ok").Inc()
			return br, spans, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("agent %s: no brokers to query", a.cfg.Name)
	}
	mBrokerQueries.With("error").Inc()
	return nil, nil, lastErr
}

// Call sends a message to an arbitrary agent address and returns the reply;
// convenience for derived agents.
func (a *Base) Call(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
	return a.call(ctx, addr, msg)
}

// Reply builds a response to msg from this agent.
func (a *Base) Reply(msg *kqml.Message, p kqml.Performative, content any) *kqml.Message {
	out := kqml.New(p, a.cfg.Name, content)
	out.Receiver = msg.Sender
	out.InReplyTo = msg.ReplyWith
	return out
}
